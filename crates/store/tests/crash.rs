//! Deterministic crash-injection matrix for the durability contract.
//!
//! The store's failpoint (`rdfmesh_store::fail`) counts every write-side
//! filesystem operation and can be armed to fail the Nth one — and every
//! one after it — simulating a process that died at exactly that write
//! boundary. These tests run a scripted workload (inserts, removes,
//! tombstoning flushes, ratio-triggered compactions, an unflushed WAL
//! tail) against an in-memory oracle that records only *acknowledged*
//! writes, then enumerate **every** boundary: for each crash point the
//! store is reopened and must equal the oracle — modulo the single
//! in-flight operation the crash interrupted, which is allowed to have
//! reached the log (durable-but-unacknowledged) or not. A flush/compact
//! interrupted anywhere must be invisible: it reorganizes bytes, never
//! logical content. A spilling bulk load interrupted anywhere leaves the
//! store exactly as it was before the load or as it is after it.
//!
//! The failpoint is process-global, so every test takes [`LOCK`]; CI
//! additionally runs this suite with `--test-threads=1`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use rdfmesh_rdf::{PatternSource, Term, TermPattern, Triple, TriplePattern};
use rdfmesh_store::{fail, LoadConfig, PersistentStore};

static LOCK: Mutex<()> = Mutex::new(());
static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("rdfmesh-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small universe of triples with overlapping terms, so some writes
/// need new dictionary entries and some do not.
fn triple(i: usize) -> Triple {
    Triple::new(
        Term::iri(&format!("http://e/s{}", i % 5)),
        Term::iri(&format!("http://e/p{}", i % 3)),
        Term::literal(&format!("o{i}")),
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Insert(usize),
    Remove(usize),
    Flush,
}

/// Inserts, a flush, tombstones of sealed triples, a second flush (which
/// trips the ratio trigger and compacts), a re-assertion of a deleted
/// key, and an unflushed tail that only the WAL protects.
fn scripted_workload() -> Vec<Action> {
    use Action::*;
    vec![
        Insert(0),
        Insert(1),
        Insert(2),
        Insert(3),
        Flush,
        Insert(4),
        Insert(5),
        Remove(1),
        Remove(4),
        Flush,
        Insert(1),
        Insert(6),
        Remove(2),
        Flush,
        Insert(7),
        Remove(6),
        Remove(7),
        Insert(7),
    ]
}

/// Every live triple in the store, cross-checked against `len()`.
fn contents(store: &PersistentStore) -> BTreeSet<Triple> {
    let pat = TriplePattern::new(
        TermPattern::var("s"),
        TermPattern::var("p"),
        TermPattern::var("o"),
    );
    let set: BTreeSet<Triple> = store.match_pattern(&pat).into_iter().collect();
    assert_eq!(set.len(), PatternSource::len(store), "len() disagrees with a full scan");
    set
}

/// Runs `actions` against a store in `dir`, applying each to the oracle
/// only once the store acknowledged it. Stops at the first injected
/// failure — the process is dead from that boundary on — and returns the
/// acknowledged state plus the action that was in flight, if any.
fn run_workload(
    dir: &Path,
    actions: &[Action],
) -> (BTreeSet<Triple>, Option<Action>) {
    let mut oracle = BTreeSet::new();
    let Ok(mut store) = PersistentStore::open(dir) else {
        return (oracle, None);
    };
    for &action in actions {
        let outcome = match action {
            Action::Insert(i) => store.try_insert(&triple(i)).map(|changed| {
                if changed {
                    oracle.insert(triple(i));
                }
            }),
            Action::Remove(i) => store.try_remove(&triple(i)).map(|changed| {
                if changed {
                    oracle.remove(&triple(i));
                }
            }),
            Action::Flush => store.flush().map(|_| ()),
        };
        if outcome.is_err() {
            return (oracle, Some(action));
        }
    }
    (oracle, None)
}

/// Recovery after a crash at any point of `actions` must equal the
/// acknowledged oracle — or, if an insert/remove was in flight, the
/// oracle with that one operation applied (its WAL record may have hit
/// the disk before the crash). A flush in flight changes nothing.
fn assert_recovers(dir: &Path, actions: &[Action], crash_at: u64, torn: bool) {
    fail::arm(crash_at, torn);
    let (oracle, in_flight) = run_workload(dir, actions);
    fail::disarm();
    let recovered = PersistentStore::open(dir)
        .unwrap_or_else(|e| panic!("recovery open (crash at {crash_at}, torn {torn}): {e}"));
    let got = contents(&recovered);
    let mut with_in_flight = oracle.clone();
    match in_flight {
        Some(Action::Insert(i)) => {
            with_in_flight.insert(triple(i));
        }
        Some(Action::Remove(i)) => {
            with_in_flight.remove(&triple(i));
        }
        Some(Action::Flush) | None => {}
    }
    assert!(
        got == oracle || got == with_in_flight,
        "crash at boundary {crash_at} (torn {torn}, in-flight {in_flight:?}): \
         recovered {got:?}\nacknowledged {oracle:?}"
    );
    // The recovered store must stay fully usable.
    drop(recovered);
    let mut reopened = PersistentStore::open(dir).expect("second recovery open");
    assert_eq!(contents(&reopened), got, "recovery is deterministic");
    let probe = triple(97);
    assert!(reopened.try_insert(&probe).expect("recovered store accepts writes"));
    assert!(reopened.contains(&probe));
}

/// The exhaustive matrix: crash at *every* write boundary of the
/// scripted workload, in both clean-cut and torn-write modes.
#[test]
fn every_crash_boundary_recovers_to_acknowledged_state() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let actions = scripted_workload();

    // Baseline pass (armed far beyond the workload) to count boundaries
    // and pin the expected final state.
    let dir = fresh_dir("baseline");
    fail::arm(u64::MAX / 2, false);
    let (full_oracle, in_flight) = run_workload(&dir, &actions);
    let boundaries = fail::ops();
    fail::disarm();
    assert_eq!(in_flight, None, "baseline run must not crash");
    assert!(boundaries > 50, "workload too small to be interesting: {boundaries} ops");
    assert!(boundaries < 2000, "workload too large to enumerate: {boundaries} ops");
    let reopened = PersistentStore::open(&dir).expect("baseline reopen");
    assert_eq!(contents(&reopened), full_oracle);
    assert!(reopened.wal_replayed() > 0, "the unflushed tail replays from the WAL");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    for torn in [false, true] {
        for crash_at in 0..boundaries {
            let dir = fresh_dir("matrix");
            assert_recovers(&dir, &actions, crash_at, torn);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Crashes *during recovery itself*: a dir carrying every kind of crash
/// debris (stale MANIFEST.tmp, an orphaned segment generation, a retired
/// WAL, a torn WAL tail) is recovered with the failpoint armed at every
/// boundary of the recovery; a second, clean recovery must still land on
/// the same state.
#[test]
fn crash_during_recovery_is_itself_recoverable() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let actions = scripted_workload();
    let canonical = fresh_dir("recovery-canonical");
    let (oracle, _) = run_workload(&canonical, &actions);

    // Litter the dir as a mid-flush crash would have.
    std::fs::write(canonical.join("MANIFEST.tmp"), "rdfmesh-store 2\ngeneration 99\n").unwrap();
    std::fs::write(canonical.join("seg-88.spo"), b"junk").unwrap();
    std::fs::write(canonical.join("wal-0.log"), b"stale").unwrap();
    // Tear the live WAL's tail: recovery must truncate it.
    let wal = std::fs::read_dir(&canonical)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("wal-") && name != "wal-0.log"
        })
        .expect("live wal file");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x55; 7]);
    std::fs::write(&wal, &bytes).unwrap();

    // Count recovery boundaries on a copy.
    let probe = fresh_dir("recovery-probe");
    copy_dir(&canonical, &probe);
    fail::arm(u64::MAX / 2, false);
    let store = PersistentStore::open(&probe).expect("armed recovery");
    let boundaries = fail::ops();
    fail::disarm();
    assert_eq!(contents(&store), oracle, "debris must not change the recovered state");
    assert!(boundaries > 0, "recovery of a littered dir does write work");
    drop(store);
    let _ = std::fs::remove_dir_all(&probe);

    for crash_at in 0..boundaries {
        let dir = fresh_dir("recovery-matrix");
        copy_dir(&canonical, &dir);
        fail::arm(crash_at, false);
        let first = PersistentStore::open(&dir);
        fail::disarm();
        drop(first); // may be Ok or the injected error; either way, retry clean
        let store = PersistentStore::open(&dir)
            .unwrap_or_else(|e| panic!("re-recovery after crash at {crash_at}: {e}"));
        assert_eq!(contents(&store), oracle, "re-recovery after crash at {crash_at}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&canonical);
}

/// A bulk load crashed at every boundary, clean and torn: the store
/// under it has two sealed levels (the newer carrying tombstones) and an
/// unflushed overlay of adds and deletes, and the load spills sorted runs.
/// Recovery lands on exactly the contents before the load or after it,
/// and no run file survives the reopen.
#[test]
fn bulk_load_crash_recovers_to_before_or_after() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let canonical = fresh_dir("load-canonical");
    {
        let mut store = PersistentStore::open(&canonical).unwrap();
        for i in 0..200 {
            store.try_insert(&triple(i)).unwrap();
        }
        store.flush().unwrap();
        for i in [10, 20, 30, 40] {
            store.try_remove(&triple(i)).unwrap();
        }
        store.try_insert(&triple(3000)).unwrap();
        store.flush().unwrap();
        assert_eq!(store.level_count(), 2, "the tombstoning flush stays its own level");
        for i in 3001..3005 {
            store.try_insert(&triple(i)).unwrap();
        }
        for i in [1, 2, 3001] {
            store.try_remove(&triple(i)).unwrap();
        }
    }
    let before = contents(&PersistentStore::open(&canonical).unwrap());
    // The load re-asserts the tombstoned triples and adds 2 400 new ones.
    let doc: String = (0..2600)
        .map(|i| {
            let t = triple(i);
            format!("{} {} {} .\n", t.subject, t.predicate, t.object)
        })
        .collect();
    let cfg = LoadConfig { workers: 2, run_triples: 1024, chunk_bytes: 64 << 10 };

    // Baseline pass: count the boundaries and pin the loaded contents.
    let probe = fresh_dir("load-probe");
    copy_dir(&canonical, &probe);
    let mut store = PersistentStore::open(&probe).unwrap();
    fail::arm(u64::MAX / 2, false);
    let report = store.bulk_load(doc.as_bytes(), &cfg);
    let boundaries = fail::ops();
    fail::disarm();
    assert!(report.expect("baseline load").runs >= 2, "the load must spill runs");
    assert!(boundaries > 50, "load too small to be interesting: {boundaries} ops");
    let after = contents(&store);
    assert_ne!(after, before);
    drop(store);
    let _ = std::fs::remove_dir_all(&probe);

    for torn in [false, true] {
        for crash_at in 0..boundaries {
            let dir = fresh_dir("load-matrix");
            copy_dir(&canonical, &dir);
            let mut store = PersistentStore::open(&dir).unwrap();
            fail::arm(crash_at, torn);
            let loaded = store.bulk_load(doc.as_bytes(), &cfg).is_ok();
            fail::disarm();
            drop(store);
            let recovered = PersistentStore::open(&dir).unwrap_or_else(|e| {
                panic!("recovery open (crash at {crash_at}, torn {torn}): {e}")
            });
            let got = contents(&recovered);
            assert!(
                got == after || (got == before && !loaded),
                "crash at boundary {crash_at} (torn {torn}, load ok {loaded}): {} triples, \
                 want {} before or {} after",
                got.len(),
                before.len(),
                after.len()
            );
            let runs: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("run-"))
                .collect();
            assert!(runs.is_empty(), "crash at {crash_at} (torn {torn}): runs survive {runs:?}");
            drop(recovered);
            let mut reopened = PersistentStore::open(&dir).expect("second recovery open");
            assert_eq!(contents(&reopened), got, "recovery is deterministic");
            assert!(reopened.try_insert(&triple(9999)).expect("recovered store accepts writes"));
            drop(reopened);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&canonical);
}

/// Satellite: a dictionary-append failure inside `try_insert` or `flush`
/// leaves the store coherent — nothing acknowledged, nothing applied,
/// no segment debris — and the store keeps working once the fault clears.
#[test]
fn dict_append_failure_leaves_flush_atomic() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("dictfail");
    let mut store = PersistentStore::open(&dir).unwrap();
    assert!(store.try_insert(&triple(0)).unwrap());
    store.flush().unwrap();
    let gen_before = store.generation();

    // This insert needs new dictionary terms; fail its very first
    // guarded op — the dictionary append.
    fail::arm(0, false);
    let err = store.try_insert(&triple(1)).expect_err("dict append must fail");
    fail::disarm();
    assert_eq!(err.kind(), std::io::ErrorKind::Other);
    assert!(!store.contains(&triple(1)), "unacknowledged insert is not applied");
    assert_eq!(PatternSource::len(&store), 1);

    // The failed insert left interned-but-unsynced terms; a flush must
    // sync them before writing any segment, so failing that first op
    // aborts the flush with no new generation and no stray files.
    assert!(store.try_insert(&triple(2)).unwrap());
    fail::arm(0, false);
    store.flush().expect_err("flush dict sync must fail");
    fail::disarm();
    assert_eq!(store.generation(), gen_before, "no generation published");
    assert!(store.contains(&triple(2)), "acknowledged overlay write survives");
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&format!("seg-{}", gen_before + 1)))
        .collect();
    assert!(stray.is_empty(), "aborted flush wrote segments: {stray:?}");

    // Fault cleared: everything proceeds, and a reopen agrees.
    assert!(store.try_insert(&triple(1)).unwrap());
    store.flush().unwrap();
    drop(store);
    let store = PersistentStore::open(&dir).unwrap();
    assert_eq!(
        contents(&store),
        BTreeSet::from([triple(0), triple(1), triple(2)])
    );
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        5 => (0usize..10).prop_map(Action::Insert),
        3 => (0usize..10).prop_map(Action::Remove),
        1 => Just(Action::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized workloads with randomized crash points: whatever the
    /// interleaving of writes, flushes and compactions, recovery equals
    /// the acknowledged oracle (modulo the one in-flight operation).
    #[test]
    fn random_workload_random_crash_point_recovers(
        actions in proptest::collection::vec(arb_action(), 1..32),
        crash_at in 0u64..320,
        torn in (0u8..2).prop_map(|b| b == 1),
    ) {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = fresh_dir("prop");
        assert_recovers(&dir, &actions, crash_at, torn);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
