//! Answer checks. An op whose answer fails its check counts as failed.
//!
//! Planner answers are checked on the wire: the `done` line the program
//! renders with `wire::done_line`, so the checks depend only on the wire
//! schema, not on engine types.

use std::collections::BTreeMap;
use std::path::Path;

/// The value of `"key":` in a flat JSON line (quotes stripped).
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The winner fields of a `done` line, in the stored-expectation order.
pub const WINNER_FIELDS: [&str; 7] = ["kind", "dp", "tp", "pp", "loops", "microbatch", "tflops"];

/// A `done` line's winner as tab-separated [`WINNER_FIELDS`], or
/// `none` when nothing fit (`"ok":false`).
///
/// # Errors
///
/// When the line is not a `done` line.
pub fn winner_of(done: &str) -> Result<String, String> {
    if field(done, "event") != Some("done") {
        return Err(format!("not a done line: {done}"));
    }
    if field(done, "ok") == Some("false") {
        return Ok("none".to_string());
    }
    WINNER_FIELDS
        .iter()
        .map(|k| field(done, k).ok_or_else(|| format!("missing {k:?} in {done}")))
        .collect::<Result<Vec<_>, _>>()
        .map(|v| v.join("\t"))
}

/// Whether a `done` line reports a warm start.
pub fn warm_started(done: &str) -> bool {
    field(done, "warm_start") == Some("true")
}

/// Stored answers keyed by request id: `id<TAB>winner fields...`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expectations {
    /// Winner (tab-separated [`WINNER_FIELDS`]) per request id.
    pub winners: BTreeMap<String, String>,
}

impl Expectations {
    /// Parses the stored TSV (a `#` header line, then one row per id).
    pub fn parse(tsv: &str) -> Expectations {
        let winners = tsv
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| l.split_once('\t'))
            .map(|(id, w)| (id.to_string(), w.to_string()))
            .collect();
        Expectations { winners }
    }

    /// Renders the TSV [`Expectations::parse`] reads.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("# {header}\n# id\t{}\n", WINNER_FIELDS.join("\t"));
        for (id, w) in &self.winners {
            out.push_str(&format!("{id}\t{w}\n"));
        }
        out
    }

    /// Checks one `done` line against the stored winner of `id`.
    ///
    /// # Errors
    ///
    /// When no winner is stored for `id` or the line's winner differs.
    pub fn check(&self, id: &str, done: &str) -> Result<(), String> {
        let want = self
            .winners
            .get(id)
            .ok_or_else(|| format!("{id}: no stored expectation"))?;
        let got = winner_of(done)?;
        if &got == want {
            Ok(())
        } else {
            Err(format!("{id}: winner {got:?}, expected {want:?}"))
        }
    }
}

/// Checks a `cold_1t` answer: its winner and its `enumerated` and
/// `simulated` counts against the stored row for `jitter_seed`
/// (`seed<TAB>winner fields...<TAB>enumerated<TAB>simulated`).
///
/// # Errors
///
/// On any mismatch, or when no row is stored for the seed.
pub fn check_cold(stored: &str, jitter_seed: u64, done: &str) -> Result<(), String> {
    let id = jitter_seed.to_string();
    let want = stored
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(&format!("{id}\t")))
        .ok_or_else(|| format!("no stored cold_1t answer for jitter seed {id}"))?;
    let got = format!(
        "{}\t{}\t{}",
        winner_of(done)?,
        field(done, "enumerated").unwrap_or("?"),
        field(done, "simulated").unwrap_or("?")
    );
    if got == want {
        Ok(())
    } else {
        Err(format!("cold_1t seed {id}: got {got:?}, expected {want:?}"))
    }
}

/// `reproduce_all` output sections that have a file in `results/`.
pub const REGEN_SECTIONS: [(&str, &str); 14] = [
    ("Table 5.1", "table_5_1.txt"),
    ("Figure 2 (CSV)", "fig2.csv"),
    ("Figure 3", "fig3.txt"),
    ("Figure 4", "fig4.txt"),
    ("Figure 7", "fig7.txt"),
    ("Figure 5a (CSV)", "fig5a.csv"),
    ("Table E.1 (CSV)", "table_e1.csv"),
    ("Figure 1", "fig1.txt"),
    ("Figure 6a (CSV)", "fig6a.csv"),
    ("Figure 5b (CSV)", "fig5b.csv"),
    ("Table E.2 (CSV)", "table_e2.csv"),
    ("Figure 6b (CSV)", "fig6b.csv"),
    ("Figure 5c (CSV)", "fig5c.csv"),
    ("Table E.3 (CSV)", "table_e3.csv"),
];

/// The committed reference outputs `regen_paper` is checked against.
#[derive(Debug, Clone)]
pub struct RegenReference {
    /// (section title, file name, file body without its title line).
    pub files: Vec<(&'static str, &'static str, Vec<String>)>,
}

fn trimmed_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    while lines.last().is_some_and(|l| l.trim().is_empty()) {
        lines.pop();
    }
    lines
}

impl RegenReference {
    /// Loads every [`REGEN_SECTIONS`] file from `results_dir`.
    ///
    /// # Errors
    ///
    /// When a file is missing or lacks its `#` title line.
    pub fn load(results_dir: &Path) -> Result<RegenReference, String> {
        let mut files = Vec::new();
        for (section, name) in REGEN_SECTIONS {
            let path = results_dir.join(name);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let (title, body) = text.split_once('\n').unwrap_or((&text, ""));
            if !title.starts_with('#') {
                return Err(format!("{name}: no title line"));
            }
            files.push((section, name, trimmed_lines(body)));
        }
        Ok(RegenReference { files })
    }

    /// Checks a full `reproduce_all` stdout: every referenced section
    /// must equal its file — CSV sections on the file's columns (the
    /// wall-clock `search_ms` column excluded), text sections line for
    /// line.
    ///
    /// # Errors
    ///
    /// Names the first section that differs.
    pub fn check(&self, output: &str) -> Result<(), String> {
        let mut sections: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut current: Option<&str> = None;
        for line in output.lines() {
            if let Some(title) = line.strip_prefix("# ") {
                current = Some(title);
                sections.entry(title).or_default();
            } else if let Some(t) = current {
                sections.entry(t).or_default().push(line);
            }
        }
        for (section, name, want) in &self.files {
            let got = sections
                .get(section)
                .ok_or_else(|| format!("section {section:?} missing"))?;
            let got = trimmed_lines(&got.join("\n"));
            let same = if name.ends_with(".csv") {
                csv_matches(&got, want)
            } else {
                &got == want
            };
            if !same {
                return Err(format!("section {section:?} differs from results/{name}"));
            }
        }
        Ok(())
    }
}

/// Whether `got` equals `want` on `want`'s columns, `search_ms` aside.
fn csv_matches(got: &[String], want: &[String]) -> bool {
    let (Some(gh), Some(wh)) = (got.first(), want.first()) else {
        return false;
    };
    let gh: Vec<&str> = gh.split(',').collect();
    let cols: Option<Vec<(usize, usize)>> = wh
        .split(',')
        .enumerate()
        .filter(|(_, c)| *c != "search_ms")
        .map(|(wi, c)| gh.iter().position(|g| *g == c).map(|gi| (gi, wi)))
        .collect();
    let Some(cols) = cols else { return false };
    got.len() == want.len()
        && got.iter().zip(want).skip(1).all(|(g, w)| {
            let g: Vec<&str> = g.split(',').collect();
            let w: Vec<&str> = w.split(',').collect();
            cols.iter().all(|&(gi, wi)| g.get(gi) == w.get(wi))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DONE: &str = "{\"id\":\"x\",\"event\":\"done\",\"ok\":true,\"tflops\":147.3451,\"dp\":64,\
        \"tp\":2,\"pp\":2,\"loops\":16,\"microbatch\":2,\"kind\":\"BreadthFirst\",\"enumerated\":758,\
        \"simulated\":233,\"warm_start\":false,\"warm_hits\":0,\"cancelled\":false,\"timed_out\":false}";

    #[test]
    fn done_lines_parse() {
        assert_eq!(field(DONE, "kind"), Some("BreadthFirst"));
        assert_eq!(field(DONE, "simulated"), Some("233"));
        assert_eq!(
            winner_of(DONE).unwrap(),
            "BreadthFirst\t64\t2\t2\t16\t2\t147.3451"
        );
        assert!(!warm_started(DONE));
        let none = "{\"id\":\"y\",\"event\":\"done\",\"ok\":false,\"warm_start\":true}";
        assert_eq!(winner_of(none).unwrap(), "none");
        assert!(warm_started(none));
        assert!(winner_of("{\"event\":\"failed\"}").is_err());
    }

    #[test]
    fn cold_check_compares_winner_and_counts() {
        let stored = "# seed\n7\tBreadthFirst\t64\t2\t2\t16\t2\t147.3451\t758\t233\n";
        assert!(check_cold(stored, 7, DONE).is_ok());
        assert!(check_cold(&stored.replace("233", "232"), 7, DONE).is_err());
        assert!(check_cold(stored, 11, DONE).is_err());
    }

    #[test]
    fn csv_sections_compare_on_the_files_columns() {
        let want: Vec<String> = ["a,b,search_ms", "1,2,9.9"].map(String::from).to_vec();
        let got: Vec<String> = ["b,a,search_ms,c", "2,1,3.1,x"].map(String::from).to_vec();
        assert!(csv_matches(&got, &want));
        let bad: Vec<String> = ["b,a,search_ms,c", "2,0,3.1,x"].map(String::from).to_vec();
        assert!(!csv_matches(&bad, &want));
    }
}
