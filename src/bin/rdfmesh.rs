//! The `rdfmesh` command-line tool.
//!
//! ```text
//! rdfmesh query [OPTIONS] <SPARQL>     run a query on a synthetic network
//! rdfmesh load <FILE.nt>... -q <SPARQL> one peer per N-Triples file
//! rdfmesh topology [OPTIONS]           print the ring and index layout
//! rdfmesh serve [OPTIONS]              run one mesh process + SPARQL endpoint
//! rdfmesh help                         this message
//! ```
//!
//! Options:
//! ```text
//! --peers N        storage nodes in the synthetic network   [default: 10]
//! --persons N      persons in the generated FOAF data       [default: 100]
//! --index N        index nodes on the ring                  [default: 4]
//! --seed S         workload seed                            [default: 2013]
//! --strategy S     basic | chained | freq                   [default: chained]
//! --format F       table | json | xml | tsv                 [default: table]
//! --objective O    plan adaptively: bytes | time | balanced
//! ```
//!
//! `serve` options (see `docs/DEPLOYMENT.md`):
//! ```text
//! --listen A             mesh listener address           [127.0.0.1:0]
//! --http A               HTTP endpoint address           [127.0.0.1:0]
//! --join A               an existing member to join through
//! --node-id N            unique base node id, < 2^32     [pid-derived]
//! --load FILE.nt         triples this process shares (repeatable)
//! --store-dir DIR        persistent triple store (docs/STORAGE.md)
//! --ack-timeout-ms N     provider query-ack deadline     [150]
//! --lookup-timeout-ms N  index lookup deadline           [150]
//! --query-deadline-ms N  hard per-query deadline         [5000]
//! --retries N            retransmissions before dead     [1]
//! --max-inflight N       concurrent query executions     [64]
//! --queue-depth N        waiting queries before 503      [256]
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rdfmesh::core::{ExecConfig, LiveConfig, PlanObjective, PrimitiveStrategy};
use rdfmesh::sparql::{to_json, to_tsv, to_xml};
use rdfmesh::workload::{foaf, FoafConfig};
use rdfmesh::{MeshNode, PatternSource, ServeOptions, SharingSystem, SparqlEndpoint};

struct Options {
    peers: usize,
    persons: usize,
    index: usize,
    seed: u64,
    strategy: PrimitiveStrategy,
    format: String,
    objective: Option<PlanObjective>,
    listen: String,
    http: String,
    join: Option<String>,
    node_id: Option<u64>,
    load: Vec<String>,
    store_dir: Option<String>,
    live: LiveConfig,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        peers: 10,
        persons: 100,
        index: 4,
        seed: 2013,
        strategy: PrimitiveStrategy::Chained,
        format: "table".into(),
        objective: None,
        listen: "127.0.0.1:0".into(),
        http: "127.0.0.1:0".into(),
        join: None,
        node_id: None,
        load: Vec::new(),
        store_dir: None,
        live: LiveConfig::default(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--peers" => o.peers = val("--peers")?.parse().map_err(|e| format!("--peers: {e}"))?,
            "--persons" => {
                o.persons = val("--persons")?.parse().map_err(|e| format!("--persons: {e}"))?
            }
            "--index" => o.index = val("--index")?.parse().map_err(|e| format!("--index: {e}"))?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--strategy" => {
                o.strategy = match val("--strategy")?.as_str() {
                    "basic" => PrimitiveStrategy::Basic,
                    "chained" => PrimitiveStrategy::Chained,
                    "freq" | "freq-ordered" => PrimitiveStrategy::FrequencyOrdered,
                    other => return Err(format!("unknown strategy {other:?}")),
                }
            }
            "--format" => o.format = val("--format")?,
            "--objective" => {
                o.objective = Some(match val("--objective")?.as_str() {
                    "bytes" => PlanObjective::MinBytes,
                    "time" => PlanObjective::MinResponseTime,
                    "balanced" => PlanObjective::Balanced(0.5),
                    other => return Err(format!("unknown objective {other:?}")),
                })
            }
            "--listen" => o.listen = val("--listen")?,
            "--http" => o.http = val("--http")?,
            "--join" => o.join = Some(val("--join")?),
            "--node-id" => {
                o.node_id =
                    Some(val("--node-id")?.parse().map_err(|e| format!("--node-id: {e}"))?)
            }
            "--load" => o.load.push(val("--load")?),
            "--store-dir" => o.store_dir = Some(val("--store-dir")?),
            "--ack-timeout-ms" => {
                let ms: u64 =
                    val("--ack-timeout-ms")?.parse().map_err(|e| format!("--ack-timeout-ms: {e}"))?;
                o.live.ack_timeout = Duration::from_millis(ms);
            }
            "--lookup-timeout-ms" => {
                let ms: u64 = val("--lookup-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--lookup-timeout-ms: {e}"))?;
                o.live.lookup_timeout = Duration::from_millis(ms);
            }
            "--query-deadline-ms" => {
                let ms: u64 = val("--query-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--query-deadline-ms: {e}"))?;
                o.live.query_deadline = Duration::from_millis(ms);
            }
            "--retries" => {
                o.live.retries = val("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?
            }
            "--max-inflight" => {
                o.live.max_inflight =
                    val("--max-inflight")?.parse().map_err(|e| format!("--max-inflight: {e}"))?
            }
            "--queue-depth" => {
                o.live.queue_depth =
                    val("--queue-depth")?.parse().map_err(|e| format!("--queue-depth: {e}"))?
            }
            "-q" | "--query" => o.positional.push(val("--query")?),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

fn build_synthetic(o: &Options) -> Result<(SharingSystem, rdfmesh::NodeId), String> {
    let data = foaf::generate(&FoafConfig {
        persons: o.persons,
        peers: o.peers,
        seed: o.seed,
        ..Default::default()
    });
    let mut sys = SharingSystem::new();
    let initiator = sys.add_index_node().map_err(|e| e.to_string())?;
    for _ in 1..o.index {
        sys.add_index_node().map_err(|e| e.to_string())?;
    }
    for peer in &data.peers {
        sys.add_peer(peer.clone()).map_err(|e| e.to_string())?;
    }
    Ok((sys, initiator))
}

fn print_result(format: &str, exec: &rdfmesh::Execution) -> Result<(), String> {
    match format {
        "json" => println!("{}", to_json(&exec.result)),
        "xml" => print!("{}", to_xml(&exec.result)),
        "tsv" => print!("{}", to_tsv(&exec.result)),
        "table" => match &exec.result {
            rdfmesh::QueryResult::Boolean(b) => println!("{b}"),
            rdfmesh::QueryResult::Graph(g) => {
                for t in g {
                    println!("{t}");
                }
            }
            rdfmesh::QueryResult::Solutions(selection) => {
                for row in selection.rows().iter() {
                    println!("{row}");
                }
            }
        },
        other => return Err(format!("unknown format {other:?}")),
    }
    eprintln!("# {}", exec.stats);
    Ok(())
}

fn run_query(o: &Options) -> Result<(), String> {
    let Some(query) = o.positional.first() else {
        return Err("query: missing SPARQL string".into());
    };
    let (mut sys, initiator) = build_synthetic(o)?;
    let exec = match o.objective {
        Some(objective) => {
            let (exec, plan) = sys
                .query_for_objective(initiator, query, objective)
                .map_err(|e| e.to_string())?;
            eprintln!("# planner chose: {}", plan.config.primitive);
            exec
        }
        None => {
            let cfg = ExecConfig { primitive: o.strategy, ..ExecConfig::default() };
            sys.query_with(initiator, query, cfg).map_err(|e| e.to_string())?
        }
    };
    print_result(&o.format, &exec)
}

fn run_load(o: &Options) -> Result<(), String> {
    if o.positional.len() < 2 {
        return Err("load: need at least one .nt file and a query (-q)".into());
    }
    let (files, query) = o.positional.split_at(o.positional.len() - 1);
    let query = &query[0];
    let mut sys = SharingSystem::new();
    let initiator = sys.add_index_node().map_err(|e| e.to_string())?;
    for _ in 1..o.index {
        sys.add_index_node().map_err(|e| e.to_string())?;
    }
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let triples = rdfmesh::rdf::parse_document(&text).map_err(|e| format!("{file}: {e}"))?;
        let (addr, report) = sys.add_peer(triples).map_err(|e| e.to_string())?;
        eprintln!("# {file} -> peer {addr} ({} index keys)", report.keys);
    }
    let cfg = ExecConfig { primitive: o.strategy, ..ExecConfig::default() };
    let exec = sys.query_with(initiator, query, cfg).map_err(|e| e.to_string())?;
    print_result(&o.format, &exec)
}

fn run_topology(o: &Options) -> Result<(), String> {
    let (sys, _) = build_synthetic(o)?;
    let overlay = sys.overlay();
    println!("ring ({} index nodes, {}-bit ids):", overlay.index_nodes().len(), overlay.ring().space().bits());
    for addr in overlay.index_nodes() {
        let id = overlay.chord_id_of(addr).expect("index node");
        let state = overlay.ring().node(id).expect("member");
        let entries = overlay.location_table(addr).map_or(0, |t| t.entry_count());
        println!(
            "  {addr}: position {id}, successor {}, {} location-table entries",
            state.successor(),
            entries
        );
    }
    println!("storage nodes:");
    for addr in overlay.storage_nodes() {
        let node = overlay.storage_node(addr).expect("listed");
        println!(
            "  {addr}: {} triples, attached to index position {}",
            node.store.len(),
            node.attached_to
        );
    }
    Ok(())
}

/// Streams `--load` files into the in-memory store without collecting an
/// intermediate `Vec<Triple>`, recording the same `store.load.*` metrics
/// the persistent bulk loader emits.
fn stream_into_memory(store: &rdfmesh::SharedStore, file: &str) -> Result<u64, String> {
    let start = std::time::Instant::now();
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let mut statements = 0u64;
    for parsed in rdfmesh::rdf::parse_statements(&text) {
        let (_, t) = parsed.map_err(|e| format!("{file}: {e}"))?;
        store.insert(&t);
        statements += 1;
    }
    let m = rdfmesh::obs::metrics();
    m.add(rdfmesh::obs::names::STORE_LOAD_STATEMENTS, statements);
    m.add(rdfmesh::obs::names::STORE_LOAD_BYTES, text.len() as u64);
    m.add(rdfmesh::obs::names::STORE_LOAD_MICROS, start.elapsed().as_micros() as u64);
    report_load(file, statements, start.elapsed());
    Ok(statements)
}

fn report_load(file: &str, statements: u64, elapsed: Duration) {
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 { statements as f64 / secs } else { 0.0 };
    eprintln!("# loaded {file}: {statements} statements in {secs:.2}s ({rate:.0} triples/s)");
}

fn run_serve(o: &Options) -> Result<(), String> {
    // Record the registry's store.* (the load counters among them) and
    // exec.* metrics for GET /metrics, which adds the node's own live.*
    // and transport.* sets.
    rdfmesh::obs::metrics().enable();
    let id = o.node_id.unwrap_or_else(|| u64::from(std::process::id()));
    let mut loaded = 0u64;
    let store: rdfmesh::SharedStore = match &o.store_dir {
        Some(dir) => {
            // Persistent backend: N-Triples files go through the parallel
            // bulk-load pipeline and land compacted on disk.
            let mut ps = rdfmesh::PersistentStore::open(dir).map_err(|e| format!("{dir}: {e}"))?;
            for file in &o.load {
                let report = ps
                    .bulk_load_path(file, &rdfmesh::LoadConfig::default())
                    .map_err(|e| format!("{file}: {e}"))?;
                report_load(file, report.statements, report.elapsed);
                loaded += report.statements;
            }
            eprintln!(
                "# store {dir}: {} triples, generation {}, {} levels, {} unflushed writes replayed from WAL",
                ps.len(),
                ps.generation(),
                ps.level_count(),
                ps.wal_replayed()
            );
            ps.into_shared()
        }
        None => {
            let store = rdfmesh::SharedStore::memory();
            for file in &o.load {
                loaded += stream_into_memory(&store, file)?;
            }
            store
        }
    };
    let triples = store.len();
    let node = Arc::new(
        MeshNode::start(o.listen.as_str(), id, store, o.live).map_err(|e| e.to_string())?,
    );
    let (keys, took) = node.key_pass();
    eprintln!(
        "# index keys: {keys} keys from {triples} triples in {:.3}s (SHA-1: {})",
        took.as_secs_f64(),
        rdfmesh::chord::sha1_kernel()
    );
    if let Some(seed) = &o.join {
        if !node.join(seed.as_str()) {
            return Err(format!("could not reach seed {seed}"));
        }
        // Wait briefly for the WELCOME so the first query sees the mesh.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while node.member_count() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        if node.member_count() < 2 {
            return Err(format!("seed {seed} never answered the join"));
        }
    }
    let endpoint = SparqlEndpoint::serve(
        o.http.as_str(),
        Arc::clone(&node),
        ServeOptions {
            bind_join: true,
            wait: o.live.query_deadline * 4 + Duration::from_secs(5),
            ..ServeOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    println!("mesh node {id} listening on {} ({loaded} triples loaded)", node.local_addr());
    println!("sparql endpoint on http://{}/sparql", endpoint.local_addr());
    eprintln!(
        "# timeouts: ack {:?}, lookup {:?}, deadline {:?}, retries {}",
        o.live.ack_timeout, o.live.lookup_timeout, o.live.query_deadline, o.live.retries
    );
    // Serve until killed: both the mesh and the endpoint run on their
    // own threads.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

const HELP: &str = "rdfmesh — ad-hoc Semantic Web data sharing (see README.md)

USAGE:
  rdfmesh query [OPTIONS] '<SPARQL>'
  rdfmesh load  [OPTIONS] <FILE.nt>... -q '<SPARQL>'
  rdfmesh topology [OPTIONS]
  rdfmesh serve [SERVE OPTIONS]

OPTIONS:
  --peers N      storage nodes in the synthetic network   [10]
  --persons N    persons in the generated FOAF data       [100]
  --index N      index nodes on the ring                  [4]
  --seed S       workload seed                            [2013]
  --strategy S   basic | chained | freq                   [chained]
  --format F     table | json | xml | tsv                 [table]
  --objective O  plan adaptively: bytes | time | balanced

SERVE OPTIONS (docs/DEPLOYMENT.md):
  --listen A             mesh listener address            [127.0.0.1:0]
  --http A               HTTP SPARQL endpoint address     [127.0.0.1:0]
  --join A               existing member to join through
  --node-id N            unique base node id, < 2^32      [pid-derived]
  --load FILE.nt         triples this process shares (repeatable)
  --store-dir DIR        persistent triple store directory (docs/STORAGE.md)
  --ack-timeout-ms N     provider query-ack deadline      [150]
  --lookup-timeout-ms N  index lookup deadline            [150]
  --query-deadline-ms N  hard per-query deadline          [5000]
  --retries N            retransmissions before dead      [1]
  --max-inflight N       concurrent query executions      [64]
  --queue-depth N        waiting queries before 503       [256]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{HELP}");
        return ExitCode::from(2);
    };
    let opts = match parse_args(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "query" => run_query(&opts),
        "load" => run_load(&opts),
        "topology" => run_topology(&opts),
        "serve" => run_serve(&opts),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `rdfmesh help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
