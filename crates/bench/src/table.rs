//! Markdown table output for experiment results, with an optional
//! recorder so a harness run can also be captured as a machine-readable
//! artifact (`exp_all` writes `BENCH_<scale>.json` from it).

use std::sync::PoisonError;

/// One table as printed by [`print_table`].
#[derive(Clone, Debug)]
pub struct RecordedTable {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

#[expect(
    clippy::disallowed_types,
    reason = "the process-wide table recorder: held to push or take a table, never across anything else"
)]
static RECORDER: std::sync::Mutex<Option<Vec<RecordedTable>>> = std::sync::Mutex::new(None);

/// Starts capturing every subsequently printed table (process-wide).
pub fn start_recording() {
    *RECORDER.lock().unwrap_or_else(PoisonError::into_inner) = Some(Vec::new());
}

/// Stops capturing and returns everything recorded since
/// [`start_recording`].
pub fn take_recorded() -> Vec<RecordedTable> {
    RECORDER.lock().unwrap_or_else(PoisonError::into_inner).take().unwrap_or_default()
}

/// Prints a titled GitHub-flavoured markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!("|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    if let Some(rec) = RECORDER.lock().unwrap_or_else(PoisonError::into_inner).as_mut() {
        rec.push(RecordedTable {
            title: title.to_owned(),
            header: header.iter().map(|h| (*h).to_owned()).collect(),
            rows: rows.to_vec(),
        });
    }
}

/// Milliseconds with sensible precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.3}")
    }
}

/// Seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

/// Bytes as MB.
pub fn fmt_mb(bytes: usize) -> String {
    let mb = bytes as f64 / (1024.0 * 1024.0);
    if mb >= 100.0 {
        format!("{mb:.0}MB")
    } else if mb >= 1.0 {
        format!("{mb:.1}MB")
    } else {
        format!("{:.0}KB", bytes as f64 / 1024.0)
    }
}

/// Plain float.
pub fn fmt_f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ms(250.0), "250");
        assert_eq!(fmt_ms(2.5), "2.50");
        assert_eq!(fmt_ms(0.25), "0.250");
        assert_eq!(fmt_secs(120.0), "120");
        assert_eq!(fmt_secs(2.0), "2.00");
        assert_eq!(fmt_secs(0.004), "4.00ms");
        assert_eq!(fmt_mb(250 * 1024 * 1024), "250MB");
        assert_eq!(fmt_mb(5 * 1024 * 1024 / 2), "2.5MB");
        assert_eq!(fmt_mb(10 * 1024), "10KB");
        assert_eq!(fmt_f(3.16), "3.2");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }

    /// The recorder captures what is printed between a start and a take,
    /// and nothing after; a thread that panicked holding it leaves it
    /// recording. One test, as the recorder is process-wide.
    #[test]
    fn the_recorder_captures_tables_until_taken_and_survives_a_poisoning() {
        let recorded = |title: &str| take_recorded().iter().filter(|t| t.title == title).count();
        start_recording();
        print_table("recorded", &["k"], &[vec!["v".into()]]);
        let tables = take_recorded();
        let mine: Vec<_> = tables.iter().filter(|t| t.title == "recorded").collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(
            (&mine[0].header, &mine[0].rows),
            (&vec!["k".to_owned()], &vec![vec!["v".to_owned()]])
        );
        print_table("after the take", &["k"], &[]);
        assert_eq!(recorded("after the take"), 0, "recorded with no recording started");
        let poisoner = std::panic::catch_unwind(|| {
            let _held = RECORDER.lock().unwrap();
            panic!("poison the recorder");
        });
        assert!(poisoner.is_err() && RECORDER.is_poisoned());
        start_recording();
        print_table("poisoned", &["k"], &[]);
        assert_eq!(recorded("poisoned"), 1);
    }
}
