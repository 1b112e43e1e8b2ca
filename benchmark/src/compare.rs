//! `compare A.json B.json`: two `results.json` files, workload by
//! workload and end-to-end metric by metric, against the bounds
//! `BENCHMARK.json` declares. This is what "two sets of runs agree" is
//! checked with.

use std::process::ExitCode;

use crate::json::{self, Value};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// How a metric is allowed to move, from `BENCHMARK.json`.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared() -> Result<Vec<Declared>, String> {
    let declaration =
        json::parse(crate::BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    declaration
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// `same`, `better` or `worse` by the bound; `unresolved` when either
/// side's own windows are spread wider than the bound, because then the
/// run cannot tell a change of that size from its noise.
fn verdict(d: &Declared, a: f64, b: f64, spread_a: f64, spread_b: f64) -> &'static str {
    if spread_a > d.bound || spread_b > d.bound {
        return "unresolved";
    }
    let change = if a == 0.0 { 0.0 } else { (b - a) / a };
    let worsening = if d.lower_is_better { change } else { -change };
    if worsening > d.bound {
        "worse"
    } else if worsening < -d.bound {
        "better"
    } else {
        "same"
    }
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [path_a, path_b] = args else {
        return Err("usage: rdfmesh-benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (side, doc) in [(path_a, &a), (path_b, &b)] {
        if doc.get("quick") == Some(&Value::Bool(true)) {
            println!("# {side} is a --quick run: not comparable, verdicts are indicative only");
        }
    }
    let declared = declared()?;
    let metric = |doc: &Value, workload: &str, name: &str, field: &str| {
        doc.get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(name)?
            .get(field)?
            .as_f64()
    };
    let mut worse = 0;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for (workload, _) in a.get("workloads").map(Value::as_obj).unwrap_or_default() {
        for d in &declared {
            let (Some(va), Some(vb)) = (
                metric(&a, workload, &d.name, "value"),
                metric(&b, workload, &d.name, "value"),
            ) else {
                continue;
            };
            let spread = |doc| metric(doc, workload, &d.name, "spread").unwrap_or(0.0);
            let v = verdict(d, va, vb, spread(&a), spread(&b));
            worse += usize::from(v == "worse");
            println!(
                "{workload:<16} {:<22} {va:>14.4} {vb:>14.4} {:>9.4} {:>7.3}  {v}",
                d.name,
                vb / va,
                d.bound
            );
        }
        // A failed request is worse at any size: the bound is +0.001 of
        // the attempts, absolute.
        let share = |doc: &Value| {
            let w = doc.get("workloads")?.get(workload)?;
            Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
        };
        if let (Some(fa), Some(fb)) = (share(&a), share(&b)) {
            let v = if fb > fa + 0.001 { "worse" } else { "same" };
            worse += usize::from(v == "worse");
            println!(
                "{workload:<16} {:<22} {fa:>14.4} {fb:>14.4} {:>9} {:>7}  {v}",
                "failed_share", "-", "+0.001"
            );
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
