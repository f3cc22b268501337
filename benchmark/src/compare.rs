//! `compare SET_A SET_B`: medians, quartiles and a verdict per (workload,
//! metric) for two sets of runs, A the base and B the change.
//!
//! A set is a path prefix: `results/<sha>-seed42` names every
//! `results/<sha>-seed42-<k>.json` that `run.sh --repeat` wrote. Run `k` of
//! A pairs with run `k` of B.

use crate::layers::{self, Value};
use crate::report::{Definition, MetricDef};
use crate::stats::{median, quartiles, verdict};
use std::path::Path;

/// `setup_s` is milliseconds of process start-up: below this many seconds
/// a move is within bound whatever its share.
const SETUP_FLOOR_S: f64 = 0.02;

fn load_set(prefix: &str) -> Result<Vec<Value>, String> {
    let path = Path::new(prefix);
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let stem = path
        .file_name()
        .ok_or_else(|| format!("`{prefix}` names no set"))?
        .to_string_lossy()
        .into_owned();
    let mut runs: Vec<(u64, Value)> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let name = entry
            .map_err(|e| e.to_string())?
            .file_name()
            .to_string_lossy()
            .into_owned();
        let k = name
            .strip_prefix(&stem)
            .and_then(|r| r.strip_prefix('-'))
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|k| k.parse::<u64>().ok());
        if let Some(k) = k {
            let text =
                std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
            runs.push((
                k,
                layers::parse_json(text.trim()).map_err(|e| format!("{name}: {e}"))?,
            ));
        }
    }
    if runs.is_empty() {
        return Err(format!("no runs match `{prefix}-<k>.json`"));
    }
    runs.sort_by_key(|(k, _)| *k);
    Ok(runs.into_iter().map(|(_, v)| v).collect())
}

fn values(set: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|run| {
            run.path(&["workloads", workload, "metrics", metric, "value"])?
                .as_f64()
        })
        .collect()
}

fn describe(set: &[Value], prefix: &str) -> String {
    let field = |k: &str| {
        set[0]
            .get(k)
            .map(|v| v.as_str().map_or_else(|| v.render(), str::to_string))
            .unwrap_or_default()
    };
    format!(
        "{prefix}: {} runs, sha {}, seed {}, nproc {}, {}",
        set.len(),
        field("sha"),
        field("seed"),
        field("nproc"),
        field("rustc")
    )
}

fn summary(v: &[f64]) -> String {
    let [q1, _, q3] = quartiles(v);
    format!("{:.4} [{q1:.4}, {q3:.4}]", median(v))
}

/// One line per (workload, metric) present in both sets.
pub fn lines(def: &Definition, a: &[Value], b: &[Value]) -> Vec<String> {
    let mut out = Vec::new();
    let metrics: Vec<&MetricDef> = def.end_to_end.iter().chain(&def.per_layer).collect();
    for w in &def.workloads {
        for m in &metrics {
            let (va, vb) = (values(a, w, &m.name), values(b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let change = if median(&va) != 0.0 {
                format!("{:+.2}%", 100.0 * (median(&vb) / median(&va) - 1.0))
            } else {
                "-".into()
            };
            let floor = if m.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let call = m.bound.map_or("no bound", |bound| {
                verdict(&va, &vb, m.lower_is_better, bound, floor).as_str()
            });
            out.push(format!(
                "{w} {} {}: A {} B {} {change} {call}",
                m.name,
                m.unit,
                summary(&va),
                summary(&vb)
            ));
        }
    }
    out
}

pub fn run(def: &Definition, set_a: &str, set_b: &str) -> Result<i32, String> {
    let (a, b) = (load_set(set_a)?, load_set(set_b)?);
    println!("{}", describe(&a, "A"));
    println!("{}", describe(&b, "B"));
    for line in lines(def, &a, &b) {
        println!("{line}");
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_doc(throughput: f64, setup: f64) -> Value {
        layers::parse_json(&format!(
            "{{\"sha\":\"x\",\"workloads\":{{\"interactive\":{{\"metrics\":{{\
             \"throughput_rps\":{{\"value\":{throughput},\"unit\":\"1/s\"}},\
             \"setup_s\":{{\"value\":{setup},\"unit\":\"s\"}}}}}}}}}}"
        ))
        .expect("synthetic run parses")
    }

    #[test]
    fn compare_reads_bounds_and_directions_from_the_definition() {
        let def = Definition::load();
        let base: Vec<Value> = (0..10).map(|k| run_doc(1000.0 + k as f64, 0.010)).collect();
        let faster: Vec<Value> = (0..10).map(|k| run_doc(1500.0 + k as f64, 0.011)).collect();
        let slower: Vec<Value> = (0..10).map(|k| run_doc(700.0 + k as f64, 0.045)).collect();
        let up = lines(&def, &base, &faster);
        assert_eq!(up.len(), 2, "{up:?}");
        assert!(
            up[0].starts_with("interactive throughput_rps") && up[0].ends_with(" better"),
            "{up:?}"
        );
        assert!(
            up[1].starts_with("interactive setup_s") && up[1].ends_with("within bound"),
            "{up:?}"
        );
        let down = lines(&def, &base, &slower);
        assert!(
            down[0].ends_with(" worse") && down[1].ends_with(" worse"),
            "{down:?}"
        );
    }

    #[test]
    fn sets_are_prefixes_of_numbered_runs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, tp) in [
            ("abc-seed7-2.json", 2.0),
            ("abc-seed7-1.json", 1.0),
            ("abc-seed7-traced-1.json", 9.0),
        ] {
            std::fs::write(dir.join(name), run_doc(tp, 0.01).render()).unwrap();
        }
        let set = load_set(dir.join("abc-seed7").to_str().unwrap()).unwrap();
        assert_eq!(
            values(&set, "interactive", "throughput_rps"),
            vec![1.0, 2.0]
        );
        assert!(load_set(dir.join("nope").to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
