//! RAII wall-clock spans with lexical nesting.
//!
//! Entering a span pushes its name onto a thread-local stack; dropping the
//! guard records the elapsed nanoseconds under the `/`-joined path of the
//! stack at that moment ("fit/select_base") and pops. Nesting is lexical
//! within a thread; workers started by [`crate::par::map`] begin with their
//! caller's stack, so their spans nest under the span that fanned out. A
//! thread spawned any other way starts its own root.

use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records its duration into the global registry on drop.
///
/// Created by [`crate::span!`]. When recording was disabled at entry the
/// guard is inert: no clock read, no stack push, nothing recorded.
///
/// While the [`crate::profile`] sampler is running, entry additionally
/// mirrors the name onto a per-thread stack the sampler reads; when it is
/// not (the common case), that costs one relaxed atomic load. The guard
/// remembers whether it mirrored, so pushes and pops stay balanced even
/// when the profiler starts or stops mid-span.
#[must_use = "a span measures the scope that holds it; dropping it immediately records ~0ns"]
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
    profiled: bool,
}

impl SpanGuard {
    /// Opens a span named `name` (use [`crate::span!`]).
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { start: None, profiled: false };
        }
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        let profiled = crate::profile::enabled();
        if profiled {
            crate::profile::push_frame(name);
        }
        SpanGuard { start: Some(Instant::now()), profiled }
    }

    /// Wall-clock time since entry (zero for an inert guard) — lets callers
    /// print progress lines from the same measurement the registry records.
    pub fn elapsed(&self) -> Duration {
        self.start.map(|s| s.elapsed()).unwrap_or_default()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if self.profiled {
            crate::profile::pop_frame();
        }
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        crate::global().record_span(&path, ns);
    }
}

/// A caller's open span path, plus the profiler's mirrored copy of it,
/// captured so worker threads can record under it.
#[derive(Debug)]
pub(crate) struct Context {
    path: Vec<&'static str>,
    frames: Vec<&'static str>,
}

impl Context {
    /// Captures the calling thread's stacks; `None` (one relaxed atomic
    /// load) while recording is disabled.
    pub(crate) fn capture() -> Option<Context> {
        if !crate::enabled() {
            return None;
        }
        let path = SPAN_STACK.with(|s| s.borrow().clone());
        let frames =
            if crate::profile::enabled() { crate::profile::current_frames() } else { Vec::new() };
        Some(Context { path, frames })
    }

    /// Seeds the calling (worker) thread's stacks with the captured ones
    /// until the returned guard drops.
    pub(crate) fn enter(&self) -> Rooted<'_> {
        SPAN_STACK.with(|s| s.borrow_mut().extend_from_slice(&self.path));
        for frame in &self.frames {
            crate::profile::push_frame(frame);
        }
        Rooted(self)
    }
}

/// Undoes one [`Context::enter`] on drop.
#[derive(Debug)]
pub(crate) struct Rooted<'a>(&'a Context);

impl Drop for Rooted<'_> {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let keep = stack.len().saturating_sub(self.0.path.len());
            stack.truncate(keep);
        });
        for _ in &self.0.frames {
            crate::profile::pop_frame();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The global registry's enabled flag is process-wide; serialize the
    /// tests that toggle it.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn nested_spans_record_joined_paths() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::global().reset();
        crate::set_enabled(true);
        {
            let _a = crate::span!("outer");
            {
                let _b = crate::span!("inner");
            }
            {
                let _c = crate::span!("inner");
            }
        }
        {
            let _d = crate::span!("outer");
        }
        crate::set_enabled(false);
        let snap = crate::global().snapshot();
        assert_eq!(snap.spans["outer/inner"].count, 2);
        assert_eq!(snap.spans["outer"].count, 2);
        assert!(
            snap.spans["outer"].total_ns >= snap.spans["outer/inner"].total_ns,
            "a parent span covers its children"
        );
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(false);
        crate::global().reset();
        let g = crate::span!("ghost");
        assert_eq!(g.elapsed(), Duration::ZERO);
        drop(g);
        assert!(crate::global().snapshot().spans.is_empty());
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty(), "nothing pushed while disabled"));
    }

    #[test]
    fn elapsed_is_monotone_while_open() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        let g = crate::span!("timed");
        let a = g.elapsed();
        let b = g.elapsed();
        assert!(b >= a);
        drop(g);
        crate::set_enabled(false);
    }
}
