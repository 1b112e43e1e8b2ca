#!/bin/sh
# What a provider computes, how an exchange is priced, how a reply is
# counted and how a role is built are each written once under
# crates/core/src (PR 18); a regex is compiled in one place, and the
# provider's scan lends its rows instead of collecting them (PR 19); a
# JSON string is escaped by one function, and the result writers build no
# string per cell, row or document (PR 20), and render each term once per
# document, in one row walker; wall-clock is measured by the
# repo benchmark (benchmark/) and by no bench target (PR 21); a plan's
# materialization becomes a result in one place above the backends, the
# binary-operator table is spelled once beside it, and the simulator asks
# the two-level index in one function (PR 22).
# Sockets are a wire of the one cluster, not a second cluster type wrapped
# around it, and every live host fills its location tables by publishing,
# through one function.
# The mesh's three roles are pure state machines behind one host, and the
# simulator runs their multiway round instead of repricing a copy of it:
# one `impl Handler<LiveMsg>`, no `Outbox` inside a role, one caller each
# of `provider::scatter(` and `provider::fold(` (the storage role) and of
# `provider::assemble(` (the coordinator), one shuffle `generation += 1`.
# A live location-table row carries the paper's frequency column, and the
# bind join's move-small rule — keys or fetch, per provider — is one
# function with one caller, both in the coordinator.
# The overlay's `LocationTable` is the one location table, on both hosts
# (no `HashMap<u64, Vec<NodeId>>` or `HashMap<u64, Box<[` table under
# crates/core/src), and `key_counts` is the one key count: one
# `keys_for_triple(` call in any crate's code. Every decoded list count is
# checked against the bytes left (`Reader::u32_count`): no `.min(1024)`
# reservation in live_wire.rs or node.rs.
# A bind join's bind step is one function, `exec::bind_step`, called by
# both backends, and the simulator's keyed round is the mesh's, run by
# the one role runner (`run_round`, the one `Scheduler::new()` in
# sim_backend.rs) that runs its multiway round too.
# A simulated query's cost is accounted once, in its trace: the engine
# reads its statistics from the trace (no `self.stats.` counter in
# sim_backend.rs, no `absorb_net`, no `net.stats()` snapshot in engine.rs),
# and the planner walks no index — it prices the rows the simulator's one
# statistics pass read. Basic and the flood fan out through one loop (one
# `Reply::Solutions(` built in sim_backend.rs), and the overlay reads a row
# — primary, else the holder's replica — in one function (one
# `self.replicas.get(` in overlay.rs).
# The store writes every segment generation through one function and
# commits it through one (crates/store/src): flush, compaction and bulk
# load share the shadow-merge writer, the source stack, the three-thread
# fan-out, the manifest swap and the WAL switch.
# A solution set is one id-row batch (`Rows`) from the frame to
# `finalize`: no `Vec<Solution>` in the mesh's roles, its codec, the
# executor or the provider but the keys of the frame to a key-shipping
# provider (the `bound` field, which the providers' per-key scan reads as
# solutions, its codec and the public entry), no row built as a `Solution` (`.to_solution()`) and no
# `DistinctBuffer` under crates/core/src, and one join in crates/sparql/src
# (no `merge_rows`, no `mod hashed`).
# A peer indexes its triples once and interns its terms once: the one
# `BTreeSet<` of id triples is `TripleIndex`'s (crates/rdf/src/index.rs),
# which `TripleStore` and the persistent store's overlay both hold, beside
# one definition of `enum Perm`; the one term dictionary is
# `rdf::Dictionary`, which keeps each term once (no `HashMap<Term` in any
# crate's code) and which `Rows` holds instead of a chain of its own (no
# `by_hash` / `older` in rows.rs).
# A SELECT answer leaves as that batch: `finalize` orders, projects,
# deduplicates and slices it in place and the JSON / XML / TSV writers
# read it, so no row becomes a `Solution` on the answer path — no
# `into_solutions(`, `to_solutions(` or `.solutions()` in eval.rs,
# results.rs or src/endpoint.rs. A bind join's keys stay a batch from the
# bind step to the coordinator's fetch-join: under crates/core/src one
# `to_solutions` builds a key-shipping provider's frame, one
# `from_solutions` is the public `Vec<Solution>` entry, and one
# `into_solutions` is the keyed round's default adapter.
# No lib test under crates/store/src arms the process-global failpoint.
# A peer's keys are counted from one lending pass over its store: no code
# collects a whole `SharedStore` (only the simulator's oracle union copies
# one, into a `TripleStore`).
# The central oracle judges the batch algebra without running it: its
# bodies in eval.rs (`evaluate_pattern`, `evaluate_query`, `post_process`)
# name no `Rows`, `evaluate_pattern_with`, `.distinct()` or `finalize(`,
# and crates/sparql/src spells the operators over `Solution`s only in
# `solution::naive` (no `fn join` / `join_owned` / `difference` /
# `left_join` / `left_join_filtered` / `distinct` whose signature names
# `Solution` outside it).
# Every byte format — the socket frames and the store's segments, WAL and
# dictionary log — is written and read through one codec,
# `rdfmesh_rdf::codec` (crates/rdf/src/codec.rs): it holds the one LEB128
# encoder (the one `| 0x80` in any crate's code), no crate has a `mod
# varint` of its own, the store reads no integer by hand
# (`from_le_bytes(`) but through the codec's checked `Reader`, and its two
# append-only logs replay through one function (`log::replay`, the one
# `fail::set_len(`).
# One byte yardstick: the simulator charges a message that carries a
# sub-query or solutions at the length of the `LiveMsg` frame the mesh
# sends for it, so no hand-written size model of a solution set, an
# expression, a pattern or a sub-query is defined under crates/sparql/src
# or crates/core/src (no `fn serialized_len`), and the overlay's query
# headers (`SUBQUERY_HEADER`, `RESULT_HEADER`) are gone from every crate.
# The one `unsafe` block and the one `#[target_feature` in library code
# are the SHA-1 kernel's pick of the x86-64 SHA extensions
# (crates/chord/src/hash.rs), and the comment run above the block opens
# `// SAFETY:`.
# One host runs the mesh's roles (crates/core/src/live/host.rs): it alone
# builds the index, storage and coordinator roles on a cluster and the
# client in front of them — one `RoundClient::new(` and one
# `IndexNode::new(`; a `CoordinatorCore::new(` and a `LiveStorage::new(`
# there and in the simulator's role runner — and the host's view of the
# ring answers `index_owner_of` once (the client's). The host alone keeps
# its counters: `LiveStats` writes nothing to the global registry (no
# `metrics().add(` in stats.rs), and neither do the socket wire's
# transport counters (no `metrics()` in crates/net/src/tcp.rs).
# Each node thread keeps its own time. A round's waits are its
# coordinator's state: the host hands it the time and asks it for its next
# wake-up (one `fn next_wake`, the coordinator's), no deadline travels as
# a message (no `LiveMsg::Deadline`, `DeadlineStage` or `Action::Schedule`
# under crates/core/src), and the cluster has no timer thread (no
# `run_timer`, `TimerCmd` or `fn schedule` under crates/net/src).
# A provider builds its answer from the ids its store scans: no row is
# built from its bindings under crates/core/src (no `push_bindings(` in
# code), and a store lends those ids through its one scan method, not a
# second one beside it — the `fn for_each_` definitions under
# crates/rdf/src and crates/store/src are source.rs's five (the trait's
# `for_each_match` and `for_each_triple`, `TripleStore`'s impl,
# `SharedStore`'s pair), store.rs's one and pstore.rs's one.
# The answer lends the store's own terms to the one frame writer: the
# provider interns nothing (no `.intern(` / `intern_owned(` in
# provider.rs code), a reply is counted off the frame the storage role
# wrote (no `wire::rows_encoded_len` under live/), and one encoder writes
# a batch and a lent answer alike (one `struct TermIds`, one
# `fn write_rows` in crates/sparql/src/solution.rs).
# Beneath the protocol there is one of each: channels and locks are
# std's (no `crossbeam` or `parking_lot` in any Cargo.toml or `use`, and
# `proptest` is the one crate under shims/), a poisoned lock is recovered
# by one rule (`fn lock<` / `fn rlock<` / `fn wlock<` defined only in
# crates/net/src), every counter set a host keeps for itself is declared
# by one macro (one `macro_rules!` in library code, `rdfmesh_obs::counters!`;
# no hand-declared `AtomicU64` counter in crates/net/src/tcp.rs — its one
# `AtomicU64` field is the barrier token sequence), and one type holds a
# socket to a deadline for the wire's reader and the HTTP endpoint (the
# one `impl Read for` / `impl Write for` in crates/net/src and src code,
# `DeadlineStream`'s).
# Fails when a second copy appears. Test modules (`mod tests` to end of
# file) and comment lines are not code.
set -eu
cd "$(dirname "$0")/../crates/core/src"

# code FILE…: the non-test, non-comment lines of the files.
code() {
    for f in "$@"; do awk '/^mod tests/{exit} {print}' "$f"; done | grep -v '^ *//'
}
bad=0
# expect WHAT FOUND WANT
expect() {
    if [ "$2" -ne "$3" ]; then
        echo "exists once: $1 — found $2, want $3" >&2
        bad=1
    fi
}
# expect_at TEXT WANT: the non-test files under crates/core/src whose code
# holds TEXT, each with its count, are exactly WANT ("FILE:COUNT").
expect_at() {
    got=$(for f in ./*.rs live/*.rs; do
        n=$(code "$f" | grep -cF -- "$1" || true)
        [ "$n" -eq 0 ] || printf '%s:%s ' "${f#./}" "$n"
    done)
    if [ "$got" != "$2 " ]; then
        echo "exists once: $1 — found at '${got% }', want '$2'" >&2
        bad=1
    fi
}
others=$(ls ./*.rs live/*.rs | grep -v '^./provider.rs$')
role='(LiveStorage|IndexNode|CoordinatorCore) \{'

expect 'pattern evaluation outside provider.rs' \
    "$(code $others | grep -cE 'evaluate_pattern_with|eval::extend' || true)" 0
expect 'shuffle_partition( callers outside provider.rs' \
    "$(code $others | grep -v 'fn shuffle_partition(' | grep -c 'shuffle_partition(' || true)" 0
expect 'note_provider_contacted() calls in sim_backend.rs' \
    "$(code sim_backend.rs | grep -c 'self\.note_provider_contacted()' || true)" 1
# Two: the exchange prices a dead provider with it, and the role runner's
# coordinator waits for it.
expect 'cfg.ack_timeout uses in sim_backend.rs' \
    "$(code sim_backend.rs | grep -c 'cfg\.ack_timeout' || true)" 2
expect 'wire::rows_encoded_len sites under live/' \
    "$(code live/*.rs | grep -c 'wire::rows_encoded_len' || true)" 0
expect 'role struct literals (one per constructor)' \
    "$(code ./*.rs live/*.rs | grep -E "$role" | grep -cvE "(struct|impl|for) $role" || true)" 3
expect_at 'impl Handler<LiveMsg> for' 'live/mod.rs:1'
expect_at 'RoundClient::new(' 'live/host.rs:1'
expect_at 'IndexNode::new(' 'live/host.rs:1'
expect_at 'CoordinatorCore::new(' 'sim_backend.rs:1 live/host.rs:1'
expect_at 'LiveStorage::new(' 'sim_backend.rs:1 live/host.rs:1'
expect_at 'fn index_owner_of' 'live/client.rs:1'
expect 'metrics().add( in stats.rs (a mirror of the host'"'"'s counters)' \
    "$(code stats.rs | grep -cF 'metrics().add(' || true)" 0
expect 'LiveMsg::Deadline / DeadlineStage / Action::Schedule under crates/core/src' \
    "$(code ./*.rs live/*.rs | grep -cE 'LiveMsg::Deadline|DeadlineStage|Action::Schedule' || true)" 0
expect_at 'fn next_wake' 'live/coordinator.rs:1'
expect 'Outbox in live/{coordinator,index,storage}.rs' \
    "$(code live/coordinator.rs live/index.rs live/storage.rs | grep -c 'Outbox' || true)" 0
expect_at 'provider::scatter(' 'live/storage.rs:1'
expect_at 'provider::fold(' 'live/storage.rs:1'
expect_at 'provider::assemble(' 'live/coordinator.rs:1'
expect_at 'generation += 1' 'live/coordinator.rs:1'
# The pipeline's tail is exec::answer and the lookup leg is
# SimBackend::resolve: no backend post-processes, joins or looks up on its
# own again.
expect 'finalize( call sites under crates/core/src' \
    "$(code ./*.rs live/*.rs | grep -c 'finalize(' || true)" 1
expect 'fn post_process in sim_backend.rs' \
    "$(code sim_backend.rs | grep -c 'fn post_process' || true)" 0
expect 'left_join_filtered call sites under crates/core/src' \
    "$(code ./*.rs live/*.rs | grep -c 'left_join_filtered' || true)" 1
expect 'locate_cached( call sites in sim_backend.rs' \
    "$(code sim_backend.rs | grep -v 'fn locate_cached(' | grep -c 'locate_cached(' || true)" 1
expect_at 'exec::bind_step(' 'live_backend.rs:1 sim_backend.rs:1'
expect 'solution:: operators (Solution forms) under crates/core/src' \
    "$(code ./*.rs live/*.rs | grep -cE 'solution::(join|join_owned|left_join|difference|union|distinct)\(' || true)" 0
# A bind join's keys travel as `Solution`s only in the frame to a
# key-shipping provider, and the public entry takes them so: what remains
# is benchmark/'s compile surface, which builds `SubQuerySol` frames and
# calls `query_solutions` — the frame's field (live/mod.rs), its codec
# (live_wire.rs) and the two public parameters (live/client.rs).
expect_at 'Vec<Solution>' 'live_wire.rs:2 live/client.rs:2 live/mod.rs:1'
expect 'Vec<Solution> that is not the shipped keys (bound / their codec)' \
    "$(code live/*.rs live_wire.rs exec.rs provider.rs | grep 'Vec<Solution>' | grep -cvE 'bound|opt_solutions' || true)" 0
expect '.to_solution() under crates/core/src' \
    "$(code ./*.rs live/*.rs | grep -c '\.to_solution()' || true)" 0
expect 'DistinctBuffer under crates/core/src' \
    "$(code ./*.rs live/*.rs | grep -c 'DistinctBuffer' || true)" 0
expect 'Scheduler::new() in sim_backend.rs (the role runner)' \
    "$(code sim_backend.rs | grep -c 'Scheduler::new()' || true)" 1
# One account: the query's trace.
expect 'self.stats. counters in sim_backend.rs' \
    "$(code sim_backend.rs | grep -c 'self\.stats\.' || true)" 0
expect 'net.stats() snapshots in engine.rs' \
    "$(code engine.rs | grep -c 'net\.stats()' || true)" 0
expect 'Overlay / .locate( in planner.rs' \
    "$(code planner.rs | grep -cE 'Overlay|\.locate\(' || true)" 0
# Built once, in the fan-out; the other is the exchange's match arm.
expect 'Reply::Solutions( built in sim_backend.rs' \
    "$(code sim_backend.rs | grep 'Reply::Solutions(' | grep -vc '=>' || true)" 1
expect 'self.replicas.get( in overlay.rs (the row read)' \
    "$(code ../../overlay/src/overlay.rs | grep -c 'self\.replicas\.get(' || true)" 1
# One cluster, two wires: crates/net/src declares one cluster struct, and
# neither the socket hook, its two-phase constructor nor the mesh's
# per-wire enum is back. The live mesh places no key centrally: its index
# nodes learn their rows from the one publication path, as serve
# processes do.
net=../../net/src
expect 'run_timer / TimerCmd / fn schedule under crates/net/src' \
    "$(code "$net"/*.rs | grep -cE 'run_timer|TimerCmd|fn schedule\b' || true)" 0
expect 'metrics() in tcp.rs (a mirror of the cluster'"'"'s transport counters)' \
    "$(code "$net"/tcp.rs | grep -cF 'metrics()' || true)" 0
expect 'cluster structs under crates/net/src' \
    "$(code "$net"/*.rs | grep -cE 'struct [A-Za-z]*Cluster\b' || true)" 1
expect 'trait RemoteRoute / struct ClusterParts / enum MeshCluster' \
    "$(code "$net"/*.rs ./*.rs live/*.rs | grep -cE 'trait RemoteRoute|struct ClusterParts|enum MeshCluster' || true)" 0
expect 'ideal_owner( under crates/core/src' \
    "$(code ./*.rs live/*.rs | grep -c 'ideal_owner(' || true)" 0
expect 'a location table of its own under crates/core/src (HashMap<u64, Vec<NodeId>> / Box<[)' \
    "$(code ./*.rs live/*.rs | grep -cE 'HashMap<u64, (Vec<NodeId>>|Box<\[)' || true)" 0
expect '.min(1024) reservations in live_wire.rs and node.rs' \
    "$(code live_wire.rs node.rs | grep -cF '.min(1024)' || true)" 0
expect_at 'fn ships_keys(' 'live/coordinator.rs:1'
# The definition and its one caller.
expect_at 'ships_keys(' 'live/coordinator.rs:2'
sparql=../../sparql/src
# The bodies of the scan driver and of its collecting wrapper.
scan=$(awk '/^pub fn (for_each_extension|evaluate_pattern_with)/{on=1} on{print} on&&/^}/{on=0}' \
    "$sparql/eval.rs")
expect 'Regex::with_flags( callers under crates/sparql/src' \
    "$(code "$sparql"/*.rs | grep -c 'Regex::with_flags(' || true)" 1
# One filter evaluator: one compiled form, read by name from a
# `Bindings` row or by position from a lent triple — two row readers —
# and no lookup by name on a lent triple.
expect 'struct Compiled under crates/sparql/src' \
    "$(code "$sparql"/*.rs | grep -c 'struct Compiled\b' || true)" 1
expect 'Slots row readers under crates/sparql/src' \
    "$(code "$sparql"/*.rs | grep -c 'Slots for ' || true)" 2
expect 'Bindings for Matched under crates/sparql/src' \
    "$(code "$sparql"/*.rs | grep -c 'Bindings for Matched' || true)" 0
expect 'collected scans (.match_pattern( / .matching() in provider.rs' \
    "$(code provider.rs | grep -cE '\.match_pattern\(|\.matching\(' || true)" 0
expect 'collected scans in for_each_extension / evaluate_pattern_with' \
    "$(echo "$scan" | grep -v '^ *//' | grep -cE '\.match_pattern\(|\.matching\(' || true)" 0
expect 'scan driver bodies found in eval.rs' "$(echo "$scan" | grep -c '^pub fn')" 2
# The oracle's bodies, and the operators' signatures outside `mod naive`
# (a signature runs from its `fn` to its `{`).
oracle=$(awk '/^(pub )?fn (evaluate_pattern|evaluate_query|post_process)</{on=1} on{print} on&&/^}/{on=0}' \
    "$sparql/eval.rs")
expect 'oracle bodies found in eval.rs' "$(echo "$oracle" | grep -cE '^(pub )?fn ')" 3
expect 'Rows / evaluate_pattern_with / .distinct() / finalize( in the oracle (eval.rs)' \
    "$(echo "$oracle" | grep -v '^ *//' | grep -cE 'Rows|evaluate_pattern_with|\.distinct\(\)|finalize\(' || true)" 0
ops='join|join_owned|difference|left_join|left_join_filtered|distinct'
solution_ops=$(code "$sparql"/*.rs | awk -v ops="$ops" '
    /^pub mod naive/ { skip = 1 }
    skip { if (/^}/) skip = 0; next }
    $0 ~ "fn (" ops ")[<(]" { sig = ""; on = 1 }
    on { sig = sig $0; if (/[{;]/) { if (sig ~ /Solution/) print sig; on = 0 } }')
expect 'Solution forms of the operators outside solution::naive (crates/sparql/src)' \
    "$(echo "$solution_ops" | grep -c . || true)" 0
expect 'merge_rows / mod hashed under crates/sparql/src' \
    "$(code "$sparql"/*.rs | grep -cE 'merge_rows|mod hashed' || true)" 0
# The six keys of a triple are counted in one function, key_counts.
cd ../../..
# A store generation is written by one function and committed by one:
# flush, compaction and bulk load differ only in the shadow-merge sources
# they hand the writer (built by `sources`) and in the levels the commit
# (`publish`) replaces. So: one manifest write; a level opened on open and
# on commit; segment writers for a generation's adds and tombstones and
# for a spilled run; the one three-thread fan-out (`per_perm`) beside the
# load pipeline's scope; shadow merges in the scan and the writer; one WAL
# switch.
store=crates/store/src
expect 'write_manifest( calls under crates/store/src' \
    "$(code "$store"/*.rs | grep -v 'fn write_manifest(' | grep -c 'write_manifest(' || true)" 1
expect 'Level::open( under crates/store/src' \
    "$(code "$store"/*.rs | grep -c 'Level::open(' || true)" 2
expect 'SegmentWriter::create( under crates/store/src' \
    "$(code "$store"/*.rs | grep -c 'SegmentWriter::create(' || true)" 3
expect 'std::thread::scope( under crates/store/src' \
    "$(code "$store"/*.rs | grep -c 'std::thread::scope(' || true)" 2
expect 'ShadowMerge::new( under crates/store/src' \
    "$(code "$store"/*.rs | grep -c 'ShadowMerge::new(' || true)" 2
expect '.reset_wal( under crates/store/src' \
    "$(code "$store"/*.rs | grep -c '\.reset_wal(' || true)" 1
# One triple index, one dictionary. files_with REGEX FILE…: each file
# whose code matches REGEX, with its count, as expect_at prints them.
files_with() {
    re=$1
    shift
    for f in "$@"; do
        n=$(code "$f" | grep -cE -- "$re" || true)
        [ "$n" -eq 0 ] || printf '%s:%s ' "$f" "$n"
    done
}
expect_files() {
    if [ "$2" != "$3${3:+ }" ]; then
        echo "exists once: $1 — found at '${2% }', want '$3'" >&2
        bad=1
    fi
}
# One byte codec: the LEB128 encoder, no second varint module, no integer
# read by hand in the store, one replay of its logs.
expect_files 'LEB128 continuation (| 0x80) under crates/*/src' \
    "$(files_with '\| 0x80' $(find crates/*/src -name '*.rs' | sort))" 'crates/rdf/src/codec.rs:1'
expect_files 'mod varint under src and crates/*/src' \
    "$(files_with '\bmod varint\b' $(find src crates/*/src -name '*.rs' | sort))" ''
expect 'from_le_bytes( in crates/store/src code' \
    "$(code "$store"/*.rs | grep -c 'from_le_bytes(' || true)" 0
expect 'fail::set_len( in crates/store/src (the one replay, log.rs)' \
    "$(code "$store"/*.rs | grep -c 'fail::set_len(' || true)" 1
expect_files 'BTreeSet< of id triples under crates/{rdf,store}/src' \
    "$(files_with 'BTreeSet<((IdTriple|Key)\b|\((TermId|u32),)' crates/rdf/src/*.rs "$store"/*.rs)" \
    'crates/rdf/src/index.rs:1'
expect_files 'HashMap<Term under src and crates/*/src' \
    "$(files_with 'HashMap<Term' $(find src crates/*/src -name '*.rs'))" ''
expect_files 'enum Perm definitions under src and crates/*/src' \
    "$(files_with 'enum Perm\b' $(find src crates/*/src -name '*.rs'))" 'crates/rdf/src/index.rs:1'
expect 'by_hash / older in crates/sparql/src/rows.rs (a dictionary of its own)' \
    "$(code crates/sparql/src/rows.rs | grep -cE '\b(by_hash|older)\b' || true)" 0
# The answer path builds no `Solution`: the one view of a result as
# `Solution`s is `Selection::solutions` (crates/sparql/src/answer.rs).
to_sols='into_solutions\(|to_solutions\(|\.solutions\(\)'
expect 'into_solutions( / to_solutions( / .solutions() in eval.rs, results.rs, src/endpoint.rs' \
    "$(code crates/sparql/src/eval.rs crates/sparql/src/results.rs src/endpoint.rs | grep -cE "$to_sols" || true)" 0
# Under crates/core/src a bind join's keys stay one `Rows` batch from the
# bind step to the coordinator's fetch-join. They become `Solution`s once
# per frame to a key-shipping provider (the coordinator's `exec_frame`),
# and in `keyed_round`'s default body, which benchmark/'s tracing wrapper
# takes; a `Vec<Solution>` becomes a batch once, at the public entry
# (`submit_solutions`).
core_rs=$(find crates/core/src -name '*.rs' | sort)
expect_files 'into_solutions under crates/core/src (keyed_round'"'"'s default body)' \
    "$(files_with '\binto_solutions\b' $core_rs)" 'crates/core/src/live_backend.rs:1'
expect_files 'to_solutions under crates/core/src (the SubQuerySol frame)' \
    "$(files_with '\bto_solutions\b' $core_rs)" 'crates/core/src/live/coordinator.rs:1'
expect_files 'from_solutions under crates/core/src (the public Vec<Solution> entry)' \
    "$(files_with '\bfrom_solutions\b' $core_rs)" 'crates/core/src/live/client.rs:1'
expect_files '.solutions() under crates/core/src' "$(files_with '\.solutions\(\)' $core_rs)" ''
# The failpoint is process-global: only tests/crash.rs, under its lock,
# arms it. A lib test that did would fail the store's other lib tests,
# which write through the guarded helpers in parallel.
store_tests=$(for f in "$store"/*.rs; do awk '/^#\[cfg\(test\)\]/{on=1} on{print}' "$f"; done |
    grep -v '^ *//' | grep -cE '\barm\(' || true)
expect 'arm( in #[cfg(test)] code under crates/store/src' "$store_tests" 0
expect 'absorb_net under crates/*/src' \
    "$(find crates/*/src -name '*.rs' | while read -r f; do code "$f"; done | grep -c 'absorb_net' || true)" 0
expect 'keys_for_triple( call sites under crates/*/src' \
    "$(find crates/*/src -name '*.rs' | while read -r f; do code "$f"; done |
        grep -v 'fn keys_for_triple(' | grep -c 'keys_for_triple(' || true)" 1
# A whole store is walked by lending (`SharedStore::for_each_triple`),
# never collected: nothing hands a store's triples back as an owned
# collection (`IntoIter<Triple>`, a pattern-less `fn …(&self) ->
# Vec<Triple>`), and no whole-store walk keeps what it is lent (`.push(`,
# `collect` or `.to_triple()` on the line of a `for_each_triple(`) — but
# the simulator's oracle, `engine::global_store`, the union it is named for.
whole='IntoIter<Triple>|fn [a-z_]+\(&self\) -> (std::vec::)?(Vec|IntoIter)<Triple>'
whole="$whole|for_each_triple\(.*(\.push\(|collect|\.to_triple\(\))"
expect_files 'whole-store collections under crates/*/src' \
    "$(files_with "$whole" $(find crates/*/src -name '*.rs' | sort))" 'crates/core/src/engine.rs:1'
# A JSON string escaper is what writes a control character as \u00XX, or
# is named for the job. rdfmesh-obs keeps its own for metric lines: it
# depends on nothing, and crates/sparql does not depend on it.
escapers=$(find src crates/*/src -name '*.rs' ! -path 'crates/obs/*' | while read -r f; do
    if code "$f" | grep -qE '\\\\u(00|\{:04)|fn [a-z_]*(json_escape|escape_json)'; then echo "$f"; fi
done)
expect "files defining JSON string escaping outside crates/obs ($(echo $escapers))" \
    "$(echo "$escapers" | grep -c . || true)" 1
expect 'format!( / .join( in results.rs (a String per cell, row or document)' \
    "$(code crates/sparql/src/results.rs | grep -cE 'format!\(|\.join\(' || true)" 0
# A term is rendered once per document: each fragment renderer — JSON's
# `json_term(`, XML's `xml_term(`, TSV's `Display` write — has one call,
# in the row walker's first-use branch, and every later cell copies it.
results=crates/sparql/src/results.rs
walker=$(awk '/^fn write_select\(/{on=1} on{print} on&&/^}/{on=0}' "$results")
renders='json_term\(|xml_term\(|write!\('
expect 'term renderer calls in results.rs (json_term( / xml_term( / write!()' \
    "$(code "$results" | grep -v '^ *fn ' | grep -cE "$renders" || true)" 3
expect 'term renderer calls in the row walker (write_select)' \
    "$(echo "$walker" | grep -v '^ *//' | grep -cE "$renders" || true)" 3
lib_rs=$(find src crates/*/src -name '*.rs' | sort)
# The one stopwatch is benchmark/: no bench target, no bench framework
# and no shim for one come back (the one shim is proptest).
expect '[[bench]] tables under crates/*/Cargo.toml' \
    "$(cat crates/*/Cargo.toml | grep -c '^\[\[bench\]\]' || true)" 0
expect 'criterion mentions in any Cargo.toml' \
    "$(cat Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml benchmark/Cargo.toml | grep -ci criterion || true)" 0
expect 'directories under shims/' "$(ls -d shims/*/ | wc -l)" 1
# One of each beneath the protocol.
expect 'crossbeam / parking_lot in any Cargo.toml' \
    "$(cat Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml | grep -cE 'crossbeam|parking_lot' || true)" 0
expect_files 'use of crossbeam / parking_lot under src and crates/*/src' \
    "$(files_with '\buse (::)?(crossbeam|parking_lot)\b|(crossbeam|parking_lot)::' $lib_rs)" ''
expect_files 'fn lock< / fn rlock< / fn wlock< under src and crates/*/src' \
    "$(files_with '\bfn (lock|rlock|wlock)<' $lib_rs)" 'crates/net/src/sync.rs:3'
expect_files 'macro_rules! under src and crates/*/src (the one counter macro)' \
    "$(files_with '\bmacro_rules!' $lib_rs)" 'crates/obs/src/counters.rs:1'
expect 'hand-declared AtomicU64 counters in crates/net/src/tcp.rs' \
    "$(code crates/net/src/tcp.rs | grep -E ': AtomicU64\b' | grep -cv 'barrier_seq' || true)" 0
expect_files 'impl Read for / impl Write for under crates/net/src and src (the one deadline stream)' \
    "$(files_with '\bimpl (io::|std::io::)?(Read|Write) for\b' $(find crates/net/src src -name '*.rs' | sort))" \
    'crates/net/src/tcp.rs:2'
# One byte yardstick: frame lengths, not a size model.
expect_files 'fn serialized_len under crates/sparql/src and crates/core/src' \
    "$(files_with 'fn serialized_len\b' $(find crates/sparql/src crates/core/src -name '*.rs' | sort))" ''
expect_files 'SUBQUERY_HEADER / RESULT_HEADER under src and crates/*/src' \
    "$(files_with '\b(SUBQUERY|RESULT)_HEADER\b' $(find src crates/*/src -name '*.rs' | sort))" ''
# One unsafe block in library code: the call that runs the SHA-1 kernel
# the CPU was seen to support. `unsafe fn` / `unsafe impl` count too.
hash_rs=crates/chord/src/hash.rs
expect_files 'unsafe under src and crates/*/src' "$(files_with '\bunsafe\b' $lib_rs)" "$hash_rs:1"
expect_files 'unsafe blocks under src and crates/*/src' "$(files_with '\bunsafe \{' $lib_rs)" "$hash_rs:1"
expect_files '#[target_feature under src and crates/*/src' \
    "$(files_with '#\[target_feature' $lib_rs)" "$hash_rs:1"
# The comment run above the block (attributes may sit between) opens
# `// SAFETY:`.
safety=$(awk '/^mod tests/{exit}
    /^ *\/\//{ if (!run) first = $0; run = 1; next }
    /^ *#\[/{ next }
    /unsafe \{/{ print (first ~ /^ *\/\/ SAFETY:/) ? "ok" : "missing" }
    { run = 0; first = "" }' "$hash_rs")
expect "unsafe blocks in $hash_rs under a // SAFETY: comment" "$(echo "$safety" | grep -c '^ok$' || true)" 1
# The answer in ids: no row built from bindings by a provider, one
# scan method per store.
expect 'push_bindings( in crates/core/src code' \
    "$(code crates/core/src/*.rs crates/core/src/live/*.rs | grep -c 'push_bindings(' || true)" 0
expect '.intern( / intern_owned( in crates/core/src/provider.rs code' \
    "$(code crates/core/src/provider.rs | grep -cE '\.intern\(|intern_owned\(' || true)" 0
expect 'struct TermIds in crates/sparql/src/solution.rs' \
    "$(code crates/sparql/src/solution.rs | grep -c 'struct TermIds\b' || true)" 1
expect 'fn write_rows in crates/sparql/src/solution.rs' \
    "$(code crates/sparql/src/solution.rs | grep -c 'fn write_rows\b' || true)" 1
expect_files 'fn for_each_ definitions under crates/rdf/src and crates/store/src' \
    "$(files_with '\bfn for_each_' crates/rdf/src/*.rs "$store"/*.rs)" \
    'crates/rdf/src/source.rs:5 crates/rdf/src/store.rs:1 crates/store/src/pstore.rs:1'
[ "$bad" -eq 0 ] && echo 'exists once: provider compute, exchange pricing, reply accounting, role constructors, the role host, the multiway protocol, regex compilation, lending scan, JSON escaping, result writers, the term fragment, the stopwatch, the pipeline tail, the operator table, the lookup leg, the cluster, the publication path, the frequency column, the move-small rule, the location table, the key count, the list-count bound, the bind step, the role runner, the query account, the statistics pass, the fan-out, the row read, the generation writer, the commit, the row batch, the triple index, the term dictionary, the answer batch, the whole-store walk, the independent oracle, the byte codec, the log replay, the unsafe block, the key batch, the failpoint, the byte yardstick, the filter evaluator, the host'"'"'s client, the host'"'"'s ledger, the wire'"'"'s ledger, the round'"'"'s clock, the answer in ids, the lent answer, the frame writer, the scan method, the channel, the lock rule, the counter macro, the deadline stream'
exit "$bad"
