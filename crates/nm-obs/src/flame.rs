//! Flamegraph folding, SVG rendering, and critical-path extraction
//! over a recorded span trace (training or serving) — all `std`-only.
//!
//! The pipeline is the classic one:
//!
//! 1. [`fold`] reconstructs each thread's span stack from the
//!    post-order trace records (using the recorded `depth`) and
//!    accumulates *self* time per unique `root;child;leaf` path —
//!    collapsed-stack format, with microseconds in place of sample
//!    counts. Threads fold into one map, so identical request
//!    lifecycles (e.g. serve exemplars, one `tid` each) merge.
//! 2. [`render_svg`] lays the folded tree out as a self-contained
//!    icicle SVG (root on top, children below, width ∝ inclusive
//!    time). Colors are a deterministic hash of the frame name, so
//!    reruns over the same trace are byte-identical.
//! 3. [`critical_path`] walks the heaviest child at every level and
//!    reports the chain — the first place to look for a regression.
//!
//! Because self time excludes children by construction, the sum of all
//! folded values equals the root spans' inclusive duration exactly
//! (per thread); `nmcdr obs flame` asserts this within 1%.

use crate::report::TraceRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One folded line: `"a;b;c"` path and accumulated self-microseconds.
pub type Folded = (String, u64);

struct SpanRef<'a> {
    name: &'a str,
    start_us: u64,
    dur_us: u64,
    self_us: u64,
    depth: u64,
}

/// Folds span records into collapsed-stack `(path, self_us)` lines,
/// sorted by path for determinism. Events and meta records are
/// ignored; zero-self frames are kept so interior nodes always exist.
pub fn fold(records: &[TraceRecord]) -> Vec<Folded> {
    let mut by_tid: BTreeMap<u64, Vec<SpanRef<'_>>> = BTreeMap::new();
    for r in records {
        if let TraceRecord::Span {
            name,
            start_us,
            dur_us,
            self_us,
            depth,
            tid,
            ..
        } = r
        {
            by_tid.entry(*tid).or_default().push(SpanRef {
                name,
                start_us: *start_us,
                dur_us: *dur_us,
                self_us: *self_us,
                depth: *depth,
            });
        }
    }
    let mut paths: BTreeMap<String, u64> = BTreeMap::new();
    for spans in by_tid.values_mut() {
        // Ancestors first: by start time, parents (smaller depth) break
        // ties — a child can start in the same microsecond as its
        // parent.
        spans.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then(a.depth.cmp(&b.depth))
                .then_with(|| b.dur_us.cmp(&a.dur_us))
        });
        let mut stack: Vec<&str> = Vec::new();
        for s in spans.iter() {
            // The recorded depth is authoritative: everything at this
            // depth or deeper has closed.
            stack.truncate(s.depth as usize);
            let mut path = String::with_capacity(32);
            for name in &stack {
                path.push_str(name);
                path.push(';');
            }
            path.push_str(s.name);
            *paths.entry(path).or_insert(0) += s.self_us;
            stack.push(s.name);
        }
    }
    paths.into_iter().collect()
}

/// Renders folded lines in the standard collapsed-stack text format
/// (`path<space>value`, one per line), units are self-microseconds.
pub fn render_collapsed(folded: &[Folded]) -> String {
    let mut out = String::new();
    for (path, v) in folded {
        let _ = writeln!(out, "{path} {v}");
    }
    out
}

#[derive(Default)]
struct Node {
    self_us: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn total_us(&self) -> u64 {
        self.self_us + self.children.values().map(Node::total_us).sum::<u64>()
    }
}

fn build_tree(folded: &[Folded]) -> Node {
    let mut root = Node::default();
    for (path, v) in folded {
        let mut node = &mut root;
        for part in path.split(';') {
            node = node.children.entry(part.to_string()).or_default();
        }
        node.self_us += v;
    }
    root
}

/// Total traced time: the sum of every folded self value, which equals
/// the summed inclusive duration of all root spans.
pub fn total_us(folded: &[Folded]) -> u64 {
    folded.iter().map(|(_, v)| v).sum()
}

const SVG_W: f64 = 1200.0;
const ROW_H: f64 = 18.0;
const PAD: f64 = 10.0;

/// Deterministic warm color from the frame name (FNV-1a hash).
fn color(name: &str) -> (u8, u8, u8) {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let r = 205 + (h % 50) as u8;
    let g = ((h >> 8) % 130) as u8;
    let b = ((h >> 16) % 55) as u8;
    (r, g, b)
}

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn max_depth(node: &Node) -> usize {
    node.children
        .values()
        .map(|c| 1 + max_depth(c))
        .max()
        .unwrap_or(0)
}

fn render_frame(out: &mut String, name: &str, node: &Node, x_us: u64, depth: usize, total: u64) {
    let node_total = node.total_us();
    let w = node_total as f64 / total as f64 * (SVG_W - 2.0 * PAD);
    if w < 0.05 {
        return; // invisible at this resolution
    }
    let x = PAD + x_us as f64 / total as f64 * (SVG_W - 2.0 * PAD);
    let y = PAD + ROW_H * (depth + 1) as f64 + 8.0;
    let (r, g, b) = color(name);
    let pct = 100.0 * node_total as f64 / total as f64;
    let _ = writeln!(
        out,
        "<g><title>{} ({node_total}us total, {}us self, {pct:.2}%)</title>",
        xml_escape(name),
        node.self_us
    );
    let _ = writeln!(
        out,
        "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{:.2}\" fill=\"rgb({r},{g},{b})\" rx=\"1\"/>",
        ROW_H - 1.0
    );
    // ~7 px per monospace character at 12 px font
    let fit = ((w - 4.0) / 7.0) as usize;
    if fit >= 3 {
        let label: String = if name.len() <= fit {
            name.to_string()
        } else {
            format!("{}..", &name[..fit.saturating_sub(2)])
        };
        let _ = writeln!(
            out,
            "<text x=\"{:.2}\" y=\"{:.2}\">{}</text>",
            x + 2.0,
            y + 13.0,
            xml_escape(&label)
        );
    }
    let _ = writeln!(out, "</g>");
    let mut child_x = x_us;
    for (cname, child) in &node.children {
        render_frame(out, cname, child, child_x, depth + 1, total);
        child_x += child.total_us();
    }
}

/// Renders a self-contained SVG icicle flamegraph (root rows on top).
/// Deterministic for a given folded input.
pub fn render_svg(folded: &[Folded]) -> String {
    let root = build_tree(folded);
    let total = total_us(folded);
    let depth = max_depth(&root);
    let height = PAD * 2.0 + 8.0 + ROW_H * (depth + 1) as f64 + 4.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_W}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {SVG_W} {height:.0}\" font-family=\"monospace\" font-size=\"12\">"
    );
    let _ = writeln!(
        out,
        "<!-- nm-obs flamegraph: total_us={total} frames={} -->",
        folded.len()
    );
    let _ = writeln!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{SVG_W}\" height=\"{height:.0}\" fill=\"#f8f8f8\"/>"
    );
    let _ = writeln!(
        out,
        "<text x=\"{:.0}\" y=\"{:.0}\" text-anchor=\"middle\">trace flamegraph — {total}us \
         traced, {} unique stacks</text>",
        SVG_W / 2.0,
        PAD + 8.0,
        folded.len()
    );
    if total > 0 {
        let mut x_us = 0u64;
        for (name, child) in &root.children {
            render_frame(&mut out, name, child, x_us, 0, total);
            x_us += child.total_us();
        }
    }
    let _ = writeln!(out, "</svg>");
    out
}

/// One level of the critical path (heaviest-child chain from the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPathRow {
    pub name: String,
    pub depth: usize,
    pub total_us: u64,
    pub self_us: u64,
}

/// Walks the heaviest child at every level, starting from the heaviest
/// root span (ties break toward the lexicographically smaller name).
pub fn critical_path(folded: &[Folded]) -> Vec<CriticalPathRow> {
    let root = build_tree(folded);
    let mut rows = Vec::new();
    let mut node = &root;
    let mut depth = 0usize;
    while let Some((name, child)) = node
        .children
        .iter()
        .max_by(|a, b| a.1.total_us().cmp(&b.1.total_us()).then(b.0.cmp(a.0)))
    {
        rows.push(CriticalPathRow {
            name: name.clone(),
            depth,
            total_us: child.total_us(),
            self_us: child.self_us,
        });
        node = child;
        depth += 1;
    }
    rows
}

/// Renders the critical path as an aligned text table; percentages are
/// relative to the path's root frame.
pub fn render_critical_path(rows: &[CriticalPathRow]) -> String {
    let root_total = rows.first().map(|r| r.total_us).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<36}  {:>12}  {:>12}  {:>7}",
        "critical path", "total", "self", "% root"
    );
    for r in rows {
        let pct = if root_total == 0 {
            0.0
        } else {
            100.0 * r.total_us as f64 / root_total as f64
        };
        let _ = writeln!(
            out,
            "{:<36}  {:>10}us  {:>10}us  {:>6.2}%",
            format!("{}{}", "  ".repeat(r.depth), r.name),
            r.total_us,
            r.self_us,
            pct
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, dur: u64, self_us: u64, depth: u64, tid: u64) -> TraceRecord {
        TraceRecord::Span {
            name: name.to_string(),
            start_us: start,
            dur_us: dur,
            self_us,
            depth,
            tid,
            seq: 0,
        }
    }

    /// root(0..100): a(0..60, child a.x 10..30), b(60..90); self 10.
    fn synthetic() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Meta { version: 1 },
            span("a.x", 10, 20, 20, 2, 0),
            span("a", 0, 60, 40, 1, 0),
            span("b", 60, 30, 30, 1, 0),
            span("root", 0, 100, 10, 0, 0),
            TraceRecord::Event {
                name: "e".to_string(),
                at_us: 100,
                tid: 0,
                seq: 0,
                f: crate::Json::Obj(Vec::new()),
            },
        ]
    }

    #[test]
    fn fold_reconstructs_paths_and_conserves_time() {
        let folded = fold(&synthetic());
        let text = render_collapsed(&folded);
        assert_eq!(text, "root 10\nroot;a 40\nroot;a;a.x 20\nroot;b 30\n");
        // self-time conservation: folded sum == root inclusive duration
        assert_eq!(total_us(&folded), 100);
    }

    #[test]
    fn fold_merges_identical_paths_across_tids() {
        let recs = vec![
            span("req", 0, 50, 20, 0, 1),
            span("merge", 20, 30, 30, 1, 1),
            span("req", 0, 70, 30, 0, 2),
            span("merge", 30, 40, 40, 1, 2),
        ];
        let folded = fold(&recs);
        assert_eq!(folded, vec![("req".into(), 50), ("req;merge".into(), 70)]);
        assert_eq!(total_us(&folded), 120);
    }

    #[test]
    fn sibling_after_deep_child_does_not_inherit_wrong_parent() {
        // a(d1) with deep child, then sibling c(d1): c's path must be
        // root;c, not root;a;...;c
        let recs = vec![
            span("root", 0, 100, 0, 0, 0),
            span("a", 0, 50, 25, 1, 0),
            span("a.x", 10, 25, 25, 2, 0),
            span("c", 50, 50, 50, 1, 0),
        ];
        let folded = fold(&recs);
        let text = render_collapsed(&folded);
        assert!(text.contains("root;c 50"), "{text}");
        assert!(!text.contains("a;c"), "{text}");
    }

    #[test]
    fn svg_is_deterministic_and_self_contained() {
        let folded = fold(&synthetic());
        let svg1 = render_svg(&folded);
        let svg2 = render_svg(&folded);
        assert_eq!(svg1, svg2);
        assert!(svg1.starts_with("<svg xmlns=\"http://www.w3.org/2000/svg\""));
        assert!(svg1.trim_end().ends_with("</svg>"));
        assert!(svg1.contains("total_us=100"));
        // every visible frame carries a tooltip with its self time
        assert!(svg1.contains("(100us total, 10us self"));
        assert!(svg1.contains("(60us total, 40us self"));
        assert!(svg1.contains("(20us total, 20us self"));
    }

    #[test]
    fn svg_handles_empty_trace() {
        let svg = render_svg(&[]);
        assert!(svg.contains("total_us=0"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn critical_path_follows_heaviest_chain() {
        let rows = critical_path(&fold(&synthetic()));
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["root", "a", "a.x"]);
        assert_eq!(rows[0].total_us, 100);
        assert_eq!(rows[1].total_us, 60);
        assert_eq!(rows[2].total_us, 20);
        let table = render_critical_path(&rows);
        assert!(table.contains("critical path"));
        assert!(table.contains("100.00%"));
    }
}
