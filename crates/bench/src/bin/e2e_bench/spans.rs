//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans nest `pass → job → unit → call`; they live in memory and are
//! written out once, when the traced run ends. Nothing here reaches into
//! the program under test: a span exists only where the benchmark itself
//! makes the call.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::clock::cpu_ns;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one job (`u32::MAX`: no job).
    pub job: u32,
    /// What was called.
    pub name: &'static str,
    /// Wall-clock start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Wall-clock end.
    pub end_ns: u64,
    /// Process CPU time consumed between start and end.
    pub cpu_ns: u64,
}

/// Job id of spans outside any job.
pub const NO_JOB: u32 = u32::MAX;

struct Open {
    spans: Vec<Span>,
    stack: Vec<u32>,
    job: u32,
}

/// An in-memory span recorder. Calls nest through a stack, so all spans
/// must come from one thread (the benchmark's main thread; jobs run with
/// `threads = 1`).
pub struct Tracer {
    origin: Instant,
    open: Mutex<Open>,
}

impl Tracer {
    /// An empty trace.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            open: Mutex::new(Open {
                spans: Vec::new(),
                stack: Vec::new(),
                job: NO_JOB,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Open> {
        self.open
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Sets the job id stamped on spans opened from now on.
    pub fn set_job(&self, job: u32) {
        self.lock().job = job;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut o = self.lock();
            let id = o.spans.len() as u32;
            let (parent, job) = (o.stack.last().copied(), o.job);
            o.spans.push(Span {
                id,
                parent,
                job,
                name,
                start_ns: 0,
                end_ns: 0,
                cpu_ns: 0,
            });
            o.stack.push(id);
            id
        };
        // Clocks are read outside the lock and as close to `f` as possible.
        let (w0, c0) = (self.origin.elapsed().as_nanos() as u64, cpu_ns());
        let out = f();
        let (c1, w1) = (cpu_ns(), self.origin.elapsed().as_nanos() as u64);
        let mut o = self.lock();
        let top = o.stack.pop();
        assert_eq!(top, Some(id), "spans must close in LIFO order");
        let s = &mut o.spans[id as usize];
        (s.start_ns, s.end_ns, s.cpu_ns) = (w0, w1, c1 - c0);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Per-span self time `(wall_ns, cpu_ns)`: the span's own duration minus
/// the part of its interval its direct children cover (overlapping
/// children are counted once), and its CPU time minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p as usize].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let child_cpu: u64 = children[i].iter().map(|&c| spans[c].cpu_ns).sum();
            (
                (s.end_ns - s.start_ns).saturating_sub(covered),
                s.cpu_ns.saturating_sub(child_cpu),
            )
        })
        .collect()
}

/// Writes the trace as one JSON document:
/// `{"workload": .., "seed": .., "spans": [{id, parent, job, name,
/// start_ns, end_ns, cpu_ns}, ..]}` (times as documented on [`Span`]).
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let job = if s.job == NO_JOB {
            "null".to_string()
        } else {
            s.job.to_string()
        };
        write!(
            w,
            "{}\n{{\"id\":{},\"parent\":{parent},\"job\":{job},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.cpu_ns
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64, cpu: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns: start,
            end_ns: end,
            cpu_ns: cpu,
        }
    }

    #[test]
    fn self_time_subtracts_nested_adjacent_and_overlapping_children() {
        let spans = vec![
            span(0, None, 0, 100, 90),
            // Two adjacent children, one of which has a child of its own.
            span(1, Some(0), 10, 30, 20),
            span(2, Some(0), 30, 50, 20),
            span(3, Some(2), 35, 45, 5),
            // Overlaps span 2 by 5 and sticks out of the parent by 10.
            span(4, Some(0), 45, 110, 30),
        ];
        let t = self_times(&spans);
        // Root: 100 − (20 + 20 + [50,100]) = 10 wall; 90 − 70 = 20 cpu.
        assert_eq!(t[0], (10, 20));
        assert_eq!(t[1], (20, 20));
        // Only the direct child is subtracted from span 2.
        assert_eq!(t[2], (10, 15));
        assert_eq!(t[3], (10, 5));
        // A leaf keeps its whole duration, even the part outside its parent.
        assert_eq!(t[4], (65, 30));
    }

    #[test]
    fn tracer_nests_calls_and_stamps_jobs() {
        let t = Tracer::new();
        t.set_job(7);
        let v = t.span("outer", || t.span("inner", || 1) + t.span("inner", || 2));
        assert_eq!(v, 3);
        t.set_job(NO_JOB);
        t.span("after", || ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].parent, s[0].job), ("outer", None, 7));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!((s[3].parent, s[3].job), (None, NO_JOB));
        assert!(s[1].start_ns >= s[0].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(s[1].end_ns <= s[2].start_ns);
    }
}
