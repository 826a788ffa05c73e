//! Timeline rendering: CSV rows and ASCII Gantt charts (used to reproduce
//! the schedule figures of the paper, e.g. Figure 4).

use std::fmt::Write as _;

use crate::graph::OpGraph;
use crate::solver::Timeline;
use crate::time::SimTime;

/// One row of a timeline export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRow {
    /// Resource name.
    pub resource: String,
    /// Op label (rendered from the op tag).
    pub label: String,
    /// Start time in nanoseconds.
    pub start_ns: u64,
    /// End time in nanoseconds.
    pub end_ns: u64,
}

/// Options for [`Timeline::render_ascii`].
#[derive(Debug, Clone)]
pub struct AsciiTimelineOptions {
    /// Total character width of the time axis.
    pub width: usize,
    /// Character used for idle time.
    pub idle_char: char,
}

impl Default for AsciiTimelineOptions {
    fn default() -> Self {
        AsciiTimelineOptions {
            width: 100,
            idle_char: '.',
        }
    }
}

impl Timeline {
    /// Exports every scheduled op as a [`TraceRow`], labelling ops with
    /// `label_fn` applied to their tag. Rows are ordered by resource, then
    /// start time.
    pub fn trace_rows<T>(
        &self,
        graph: &OpGraph<T>,
        mut label_fn: impl FnMut(&T) -> String,
    ) -> Vec<TraceRow> {
        let mut rows: Vec<TraceRow> = self
            .scheduled
            .iter()
            .map(|s| TraceRow {
                resource: graph.resource_name(s.resource).to_string(),
                label: label_fn(graph.op(s.op).tag()),
                start_ns: s.start.duration_since(SimTime::ZERO).as_nanos(),
                end_ns: s.end.duration_since(SimTime::ZERO).as_nanos(),
            })
            .collect();
        rows.sort_by(|a, b| (&a.resource, a.start_ns).cmp(&(&b.resource, b.start_ns)));
        rows
    }

    /// Exports the timeline as CSV with header
    /// `resource,label,start_ns,end_ns`.
    pub fn to_csv<T>(&self, graph: &OpGraph<T>, label_fn: impl FnMut(&T) -> String) -> String {
        let mut out = String::from("resource,label,start_ns,end_ns\n");
        for row in self.trace_rows(graph, label_fn) {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                row.resource, row.label, row.start_ns, row.end_ns
            );
        }
        out
    }

    /// Renders an ASCII Gantt chart: one line per resource, ops drawn with
    /// the (first character of the) label produced by `glyph_fn`.
    ///
    /// Ops shorter than one column still occupy at least one character, so
    /// very dense timelines are approximate; the chart is for human eyes,
    /// use [`Timeline::to_csv`] for exact data.
    pub fn render_ascii<T>(
        &self,
        graph: &OpGraph<T>,
        options: &AsciiTimelineOptions,
        mut glyph_fn: impl FnMut(&T) -> char,
    ) -> String {
        let total_ns = self.makespan.as_nanos().max(1);
        let width = options.width.max(10);
        let mut out = String::new();
        let name_width = graph
            .resource_ids()
            .map(|r| graph.resource_name(r).len())
            .max()
            .unwrap_or(0);
        for r in graph.resource_ids() {
            let mut line: Vec<char> = vec![options.idle_char; width];
            for s in &self.scheduled {
                if s.resource != r {
                    continue;
                }
                let glyph = glyph_fn(graph.op(s.op).tag());
                let start_ns = s.start.duration_since(SimTime::ZERO).as_nanos();
                let end_ns = s.end.duration_since(SimTime::ZERO).as_nanos();
                // Ceiling division for the start cell keeps a short op from
                // being overwritten by a successor that starts right after it.
                let c0 = ((start_ns * width as u64).div_ceil(total_ns) as usize).min(width - 1);
                let c1 = (((end_ns * width as u64).div_ceil(total_ns)) as usize)
                    .max(c0 + 1)
                    .min(width);
                for cell in &mut line[c0..c1] {
                    *cell = glyph;
                }
            }
            let _ = writeln!(
                out,
                "{:>name_width$} |{}|",
                graph.resource_name(r),
                line.iter().collect::<String>()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpGraph;
    use crate::time::SimDuration;

    fn demo() -> (OpGraph<&'static str>, Timeline) {
        let mut g: OpGraph<&'static str> = OpGraph::new();
        let r1 = g.add_resource("gpu0");
        let r2 = g.add_resource("gpu1");
        let a = g.add_op(r1, SimDuration::from_nanos(10), &[], "F0");
        let b = g.add_op(r2, SimDuration::from_nanos(10), &[a], "F1");
        let _ = b;
        let t = g.solve().unwrap();
        (g, t)
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (g, t) = demo();
        let csv = t.to_csv(&g, |tag| tag.to_string());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "resource,label,start_ns,end_ns");
        assert_eq!(lines.len(), 3);
        assert!(lines.contains(&"gpu0,F0,0,10"));
        assert!(lines.contains(&"gpu1,F1,10,20"));
    }

    #[test]
    fn trace_rows_sorted_by_resource_then_start() {
        let (g, t) = demo();
        let rows = t.trace_rows(&g, |tag| tag.to_string());
        assert_eq!(rows[0].resource, "gpu0");
        assert_eq!(rows[1].resource, "gpu1");
    }

    #[test]
    fn ascii_draws_one_line_per_resource() {
        let (g, t) = demo();
        let art = t.render_ascii(
            &g,
            &AsciiTimelineOptions {
                width: 20,
                idle_char: '.',
            },
            |tag| tag.chars().next().unwrap(),
        );
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        // gpu0 busy in the first half, idle after; gpu1 the reverse.
        assert!(lines[0].contains("gpu0"));
        assert!(lines[0].contains("FFFFFFFFFF.........."));
        assert!(lines[1].contains("..........FFFFFFFFFF"));
    }

    #[test]
    fn ascii_minimum_one_cell_per_op() {
        let mut g: OpGraph<&'static str> = OpGraph::new();
        let r = g.add_resource("r");
        g.add_op(r, SimDuration::from_nanos(1), &[], "a");
        g.add_op(r, SimDuration::from_nanos(1_000_000), &[], "b");
        let t = g.solve().unwrap();
        let art = t.render_ascii(&g, &AsciiTimelineOptions::default(), |tag| {
            tag.chars().next().unwrap()
        });
        assert!(art.contains('a'), "tiny op must still be drawn: {art}");
    }
}
