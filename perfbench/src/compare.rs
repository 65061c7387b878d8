//! `perfbench compare RUN...`: reads saved run outputs (the stdout of
//! `perfbench`), groups them by host fingerprint (everything in the
//! `# host` line but the seed) and prints each metric's median and
//! quartile spread per group, groups side by side. Groups whose
//! fingerprints differ are never compared with each other.

use std::collections::BTreeMap;

use stco_obs::json::JsonValue;

/// One run output: its fingerprint key and its metrics.
fn parse_run(text: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let host = text
        .lines()
        .find_map(|l| l.strip_prefix("# host "))
        .ok_or("no `# host` line")?;
    let host = JsonValue::parse(host).map_err(|e| format!("bad host line: {e}"))?;
    let JsonValue::Obj(fields) = host else {
        return Err("host line is not an object".to_string());
    };
    let key = JsonValue::Obj(fields.into_iter().filter(|(k, _)| k != "seed").collect()).render();
    let last = text.lines().last().ok_or("empty output")?;
    let result = JsonValue::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        return Err("result line has no metrics".to_string());
    };
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((key, values))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), for two or more values.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = crate::stats::sorted(values);
    let n = s.len() as f64;
    let at = |p: f64| {
        let pos = (p * (n + 1.0)).clamp(1.0, n);
        let (j, frac) = (pos.floor() as usize, pos.fract());
        s[j - 1] + frac * (s[j.min(s.len() - 1)] - s[j - 1])
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Runs the comparison over the files in `paths`.
pub fn run(paths: &[String]) -> Result<(), String> {
    let mut groups: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (key, values) = parse_run(&text).map_err(|e| format!("{path}: {e}"))?;
        let group = groups.entry(key).or_default();
        for (name, v) in values {
            group.entry(name).or_default().push(v);
        }
    }
    let keys: Vec<&String> = groups.keys().collect();
    for (i, key) in keys.iter().enumerate() {
        println!("group {i}: {key}");
    }
    if keys.len() > 1 {
        println!("fingerprints differ: groups are shown side by side and not compared");
    }
    let names: std::collections::BTreeSet<&String> =
        groups.values().flat_map(|g| g.keys()).collect();
    for name in names {
        let cells: Vec<String> = groups
            .values()
            .map(|g| match g.get(name) {
                Some(v) if v.len() >= 2 => {
                    let (q1, med, q3) = quartiles(v);
                    format!(
                        "{med:>12.4} ±{:>6.3} (n={})",
                        (q3 - q1) / med.abs(),
                        v.len()
                    )
                }
                Some(v) => format!("{:>12.4}         (n=1)", v[0]),
                None => format!("{:>28}", "-"),
            })
            .collect();
        println!("{name:<44} {}", cells.join("   "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 100], n=4) == [1.5, 3.0, 52.0]
        assert_eq!(quartiles(&[4.0, 1.0, 100.0, 3.0, 2.0]), (1.5, 3.0, 52.0));
    }

    #[test]
    fn runs_group_by_fingerprint_without_seed() {
        let run = |seed: u32, cpu: &str| {
            format!(
                "# host {{\"cpu\":\"{cpu}\",\"seed\":{seed}}}\n# e2e x 1 ms\n\
                 {{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"x\":{{\"value\":{seed},\"unit\":\"ms\"}}}}}}"
            )
        };
        let (a, va) = parse_run(&run(1, "A")).unwrap();
        let (b, _) = parse_run(&run(2, "A")).unwrap();
        let (c, _) = parse_run(&run(1, "B")).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(va, vec![("x".to_string(), 1.0)]);
    }
}
