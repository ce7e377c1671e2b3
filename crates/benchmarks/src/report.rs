//! Plain-text reports reproducing the paper's tables and figures.

use std::collections::BTreeMap;
use std::time::Duration;

use apiphany_mining::SemLib;
use apiphany_spec::{Label, Loc, SynTy};

use crate::defs::{Api, Benchmark};
use crate::prep::Prepared;
use crate::run::BenchOutcome;

/// Formats Table 1: API sizes and analysis statistics.
pub fn table1(rows: &[(Api, &Prepared)]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: APIs used in the experiments\n");
    out.push_str(
        "API      |Λ.f|   n_arg      |Λ.o|   s_obj      |W|      n_cov\n",
    );
    out.push_str("--------------------------------------------------------------\n");
    for (api, prepared) in rows {
        let stats = prepared.library.stats();
        out.push_str(&format!(
            "{:<8} {:<7} {:<10} {:<7} {:<10} {:<8} {}\n",
            api.name(),
            stats.n_methods,
            format!("{} - {}", stats.min_args, stats.max_args),
            stats.n_objects,
            format!("{} - {}", stats.min_obj_size, stats.max_obj_size),
            prepared.analysis.n_witnesses,
            prepared.analysis.n_covered_methods,
        ));
    }
    out
}

/// Formats one Table 2 row.
pub fn table2_row(bench: &Benchmark, outcome: &BenchOutcome) -> String {
    let m = outcome.gold_metrics;
    let dash = "-".to_string();
    format!(
        "{:<6}{:<4} {:>3} {:>3} {:>3} {:>3}  {:>8}  {:>8} {:>6} {:>8} {:>6}\n",
        format!("{}{}", outcome.id, if bench.effectful { "†" } else { "" }),
        bench.api.name().chars().next().unwrap(),
        m.ast_nodes,
        m.n_calls,
        m.n_projs,
        m.n_guards,
        outcome
            .time_to_gold
            .map(|d| format!("{:.1}s", d.as_secs_f64()))
            .unwrap_or_else(|| dash.clone()),
        outcome.r_orig.map(|r| r.to_string()).unwrap_or_else(|| dash.clone()),
        outcome.r_re.map(|r| r.to_string()).unwrap_or_else(|| dash.clone()),
        outcome.n_candidates,
        outcome.r_to.map(|r| r.to_string()).unwrap_or_else(|| dash.clone()),
    )
}

/// Formats the full Table 2.
pub fn table2(rows: &[(Benchmark, BenchOutcome)]) -> String {
    let mut out = String::new();
    out.push_str("Table 2: Synthesis benchmarks and results\n");
    out.push_str("ID        AST  nf  np  ng      time    r_orig   r_RE  #cands  r_TO\n");
    out.push_str("--------------------------------------------------------------------\n");
    for (bench, outcome) in rows {
        out.push_str(&table2_row(bench, outcome));
    }
    let solved = rows.iter().filter(|(_, o)| o.solved).count();
    let re_share: f64 = {
        let re: f64 = rows.iter().map(|(_, o)| o.re_time.as_secs_f64()).sum();
        let total: f64 = rows.iter().map(|(_, o)| o.total_time.as_secs_f64()).sum();
        if total > 0.0 {
            100.0 * re / total
        } else {
            0.0
        }
    };
    out.push_str(&format!(
        "\nsolved: {}/{}   RE share of synthesis time: {:.1}%\n",
        solved,
        rows.len(),
        re_share
    ));
    out
}

/// Formats the Fig. 13 series: number of benchmarks solved within each
/// time budget, per variant.
pub fn fig13(series: &[(String, Vec<Option<Duration>>)], total: usize) -> String {
    let points = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0];
    let mut out = String::new();
    out.push_str("Fig. 13: benchmarks solved vs synthesis time\n");
    out.push_str(&format!("{:<16}", "time (s)"));
    for p in points {
        out.push_str(&format!("{p:>7}"));
    }
    out.push('\n');
    for (name, times) in series {
        out.push_str(&format!("{name:<16}"));
        for p in points {
            let solved = times
                .iter()
                .filter(|t| t.is_some_and(|d| d.as_secs_f64() <= p))
                .count();
            out.push_str(&format!("{solved:>7}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("(out of {total} benchmarks)\n"));
    out
}

/// Formats the Fig. 14 series: number of benchmarks whose gold lands
/// within rank k, without RE (`r_orig`), with RE at generation time
/// (`r_RE`), and with RE at timeout (`r_RE^TO`).
pub fn fig14(outcomes: &[BenchOutcome]) -> String {
    let ks = [1usize, 2, 3, 5, 10, 20, 50, 100];
    let count = |f: &dyn Fn(&BenchOutcome) -> Option<usize>, k: usize| {
        outcomes.iter().filter(|o| f(o).is_some_and(|r| r <= k)).count()
    };
    let mut out = String::new();
    out.push_str("Fig. 14: benchmarks whose solution is reported within a given rank\n");
    out.push_str(&format!("{:<22}", "rank ≤"));
    for k in ks {
        out.push_str(&format!("{k:>6}"));
    }
    out.push('\n');
    for (name, f) in [
        ("no RE (r_orig)", (&|o: &BenchOutcome| o.r_orig) as &dyn Fn(&BenchOutcome) -> Option<usize>),
        ("RE at generation", &|o: &BenchOutcome| o.r_re),
        ("RE at timeout", &|o: &BenchOutcome| o.r_to),
    ] {
        out.push_str(&format!("{name:<22}"));
        for k in ks {
            out.push_str(&format!("{:>6}", count(&f, k)));
        }
        out.push('\n');
    }
    out
}

/// Formats the Table 4 qualitative analysis: for sampled covered methods,
/// each String-typed parameter/response location with its inferred
/// semantic type (group representative and loc-set size).
pub fn table4(semlib: &SemLib, methods_per_api: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 4 (qualitative): mined types for sampled methods of {}\n",
        semlib.lib.name
    ));
    let covered: Vec<String> = semlib
        .methods
        .keys()
        .filter(|m| semlib.method_has_response_values(m))
        .cloned()
        .collect();
    let step = (covered.len() / methods_per_api.max(1)).max(1);
    let sampled: Vec<&String> = covered.iter().step_by(step).take(methods_per_api).collect();
    for name in sampled {
        out.push_str(&format!("  {name}\n"));
        let sig = &semlib.lib.methods[name.as_str()];
        let mut rows: BTreeMap<String, (String, usize)> = BTreeMap::new();
        for field in &sig.params.fields {
            if field.ty == SynTy::Str {
                let loc = Loc::method(name.clone()).child(Label::In).field(field.name.clone());
                if let Some(g) = semlib.group_of(&loc) {
                    let data = semlib.group(g);
                    rows.insert(
                        format!("param {}{}", if field.optional { "?" } else { "" }, field.name),
                        (data.display.clone(), data.locs.len()),
                    );
                }
            }
        }
        for (label, (display, size)) in rows {
            let quality = if size > 1 { "merged" } else { "unmerged (location type)" };
            out.push_str(&format!("    {label:<28} ⇒ {display}  [{size} locs, {quality}]\n"));
        }
    }
    out
}
