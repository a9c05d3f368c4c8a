//! Benchmark-side spans: recorded around the benchmark's own calls into a
//! layer's public functions, kept in memory, written out once per run, and
//! read back to derive per-layer self time.
//!
//! A span's layer is the prefix of its name before the first `.`
//! (`crowd.oracle.verify_fact` belongs to `crowd`). Self time is a span's
//! duration minus the union of its children's intervals; children may
//! overlap when a parallel crowd answers on several threads at once.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{self, Json};

/// One finished span. Times are nanoseconds since the run's trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request (session) the span worked for; empty outside one.
    pub req: String,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// The span that threads with no open span of their own report to: the
/// session a parallel crowd's worker threads answer for.
static AMBIENT: Mutex<Option<(u64, String)>> = Mutex::new(None);
/// Counts recorded at the same boundaries as the spans: (sum, events).
static COUNTS: Mutex<BTreeMap<&'static str, (u64, u64)>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<(u64, String)>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span recording on or off. Off, [`span`] costs one atomic load.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record one event of `name` that counted `n` (while tracing is on).
pub fn count(name: &'static str, n: usize) {
    if enabled() {
        let mut counts = COUNTS.lock().expect("count table lock poisoned");
        let e = counts.entry(name).or_insert((0, 0));
        e.0 += n as u64;
        e.1 += 1;
    }
}

/// Mean count per recorded event of `name`; 0 when none was recorded.
pub fn counter_mean(name: &str) -> f64 {
    let counts = COUNTS.lock().expect("count table lock poisoned");
    match counts.get(name) {
        Some(&(sum, n)) if n > 0 => sum as f64 / n as f64,
        _ => 0.0,
    }
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    req: String,
    ambient: bool,
}

/// Open a span named `name`. A non-empty `req` names the request the span
/// works for; an empty one inherits the enclosing span's.
pub fn span(name: &'static str, req: &str) -> Guard {
    open(name, req, false)
}

/// [`span`] that also becomes the parent of spans opened on threads that
/// have no open span (the workers of a parallel crowd).
pub fn root_span(name: &'static str, req: &str) -> Guard {
    open(name, req, true)
}

fn open(name: &'static str, req: &str, ambient: bool) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
            req: String::new(),
            ambient: false,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, inherited) = STACK
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| {
            AMBIENT
                .lock()
                .expect("ambient span lock poisoned")
                .clone()
                .unwrap_or((0, String::new()))
        });
    let req = if req.is_empty() {
        inherited
    } else {
        req.to_string()
    };
    STACK.with(|s| s.borrow_mut().push((id, req.clone())));
    if ambient {
        *AMBIENT.lock().expect("ambient span lock poisoned") = Some((id, req.clone()));
    }
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
        req,
        ambient,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|(id, _)| *id == self.id) {
                s.truncate(pos);
            }
        });
        if self.ambient {
            if let Ok(mut a) = AMBIENT.lock() {
                *a = None;
            }
        }
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name.to_string(),
                start_ns: self.start_ns,
                end_ns,
                req: std::mem::take(&mut self.req),
            });
        }
    }
}

/// Write every recorded span to `path`, one JSON object per line, and
/// clear the in-memory buffer.
pub fn write(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span buffer lock poisoned"));
    let mut out = String::new();
    for s in &spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"req\":{}}}\n",
            s.id,
            s.parent,
            json::quote(&s.name),
            s.start_ns,
            s.end_ns,
            json::quote(&s.req)
        ));
    }
    std::fs::write(path, out)?;
    Ok(spans.len())
}

/// Read a span file written by [`write`].
pub fn read(path: &std::path::Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = Json::parse(line)?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(Json::as_f64)
                    .map(|n| n as u64)
                    .ok_or_else(|| format!("span line without {k}: {line}"))
            };
            let text = |k: &str| {
                v.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("span line without {k}: {line}"))
            };
            Ok(Span {
                id: num("id")?,
                parent: num("parent")?,
                name: text("name")?,
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
                req: text("req")?,
            })
        })
        .collect()
}

/// Spans indexed for self-time queries.
pub struct SpanTree {
    pub spans: Vec<Span>,
    children: BTreeMap<u64, Vec<usize>>,
}

impl SpanTree {
    pub fn new(spans: Vec<Span>) -> SpanTree {
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        SpanTree { spans, children }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of `span` whose name starts with `prefix`.
    pub fn children<'a>(&'a self, span: &Span, prefix: &str) -> Vec<&'a Span> {
        self.children
            .get(&span.id)
            .into_iter()
            .flatten()
            .map(|&i| &self.spans[i])
            .filter(|c| c.name.starts_with(prefix))
            .collect()
    }

    /// Union of the intervals of `span`'s direct children whose name starts
    /// with `prefix`.
    pub fn child_ns(&self, span: &Span, prefix: &str) -> u64 {
        let mut iv: Vec<(u64, u64)> = self
            .children(span, prefix)
            .into_iter()
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        iv.sort_unstable();
        let mut total = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    total += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            total += cb - ca;
        }
        total
    }

    /// The span's duration minus its children's.
    pub fn self_ns(&self, span: &Span) -> u64 {
        span.dur_ns().saturating_sub(self.child_ns(span, ""))
    }

    /// Total self time per layer.
    pub fn layer_self_ns(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer().to_string()).or_insert(0) += self.self_ns(s);
        }
        out
    }
}
