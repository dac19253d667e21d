//! Outside-in layer timing for the traced run.
//!
//! [`TimedFirmware`] and [`TimedHost`] wrap a NIC's `Firmware` and a host's
//! `HostAgent` and forward every call unchanged (including `as_any`, so
//! harnesses that downcast the firmware still reach the real one). Each
//! forwarded behaviour call is recorded as a span — (layer, start, end,
//! parent) — in an in-memory [`Profiler`]; each workload opens a root span
//! around every `Cluster::run_until`. [`Profiler::split`] turns the spans
//! into per-layer self times: a span's self time is its duration minus
//! the durations of the spans nested directly inside it.
//!
//! What each self time covers, given that the decorators sit at the trait
//! boundary and nothing inside the program is instrumented:
//! - `firmware`: the firmware's own code plus the NIC/fabric mechanism
//!   work it triggers synchronously (e.g. handing a packet to the wire).
//! - `host`: the host agent's own code plus the NIC mechanism work of
//!   `HostCtx::post_send`, minus the firmware calls nested in it.
//! - `engine_core`: the rest of `run_until` — the event queue, the fabric
//!   wormhole engine and the NIC mechanisms driven by events.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use san_fabric::{NodeId, Packet};
use san_nic::{BufId, Firmware, HostAgent, HostCtx, NicCore, NicCtx, SendDesc};

/// Which layer a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `Cluster::run_until` call (the root of every span tree).
    RunUntil,
    /// A `Firmware` trait call.
    Firmware,
    /// A `HostAgent` trait call.
    Host,
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Span store shared by every decorator of one cluster.
#[derive(Debug)]
pub struct Profiler {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

/// Per-layer self times and call counts of one traced pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Split {
    /// Total time inside `run_until`, s.
    pub run_until_s: f64,
    /// `run_until` minus every decorated call it contains, s.
    pub engine_core_s: f64,
    /// Firmware self time, s.
    pub firmware_s: f64,
    /// Firmware calls.
    pub firmware_calls: u64,
    /// Host-agent self time, s.
    pub host_s: f64,
    /// Host-agent calls.
    pub host_calls: u64,
}

impl Profiler {
    /// An empty profiler, shareable by the decorators of one cluster.
    pub fn new() -> Rc<Self> {
        Rc::new(Self {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            open: RefCell::new(Vec::with_capacity(8)),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    fn enter(&self, layer: Layer) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let id = spans.len() as u32;
        let parent = open.last().copied().unwrap_or(NO_PARENT);
        spans.push(Span {
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
        });
        open.push(id);
        id
    }

    /// Close span `id` (spans close in LIFO order).
    fn exit(&self, id: u32) {
        let end = self.now_ns();
        let popped = self.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        self.spans.borrow_mut()[id as usize].end_ns = end;
    }

    /// Time `f` as one span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer);
        let r = f();
        self.exit(id);
        r
    }

    /// Self time per layer over every span recorded so far.
    pub fn split(&self) -> Split {
        split_spans(&self.spans.borrow())
    }
}

fn split_spans(spans: &[Span]) -> Split {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = Split::default();
    for (s, kids) in spans.iter().zip(&children_ns) {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(*kids) as f64 / 1e9;
        match s.layer {
            Layer::RunUntil => {
                out.run_until_s += dur as f64 / 1e9;
                out.engine_core_s += own;
            }
            Layer::Firmware => {
                out.firmware_s += own;
                out.firmware_calls += 1;
            }
            Layer::Host => {
                out.host_s += own;
                out.host_calls += 1;
            }
        }
    }
    out
}

/// Forwarding `Firmware` decorator that records a span per call.
pub struct TimedFirmware {
    inner: Box<dyn Firmware>,
    prof: Rc<Profiler>,
}

impl TimedFirmware {
    /// Wrap `inner`.
    pub fn wrap(inner: Box<dyn Firmware>, prof: &Rc<Profiler>) -> Box<dyn Firmware> {
        Box::new(Self {
            inner,
            prof: prof.clone(),
        })
    }
}

impl Firmware for TimedFirmware {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_start(&mut self, core: &mut NicCore, ctx: &mut NicCtx) {
        let inner = &mut self.inner;
        self.prof
            .span(Layer::Firmware, || inner.on_start(core, ctx))
    }
    fn on_tx_ready(&mut self, core: &mut NicCore, ctx: &mut NicCtx, buf: BufId) {
        let inner = &mut self.inner;
        self.prof
            .span(Layer::Firmware, || inner.on_tx_ready(core, ctx, buf))
    }
    fn on_tx_injected(&mut self, core: &mut NicCore, ctx: &mut NicCtx, buf: BufId) {
        let inner = &mut self.inner;
        self.prof
            .span(Layer::Firmware, || inner.on_tx_injected(core, ctx, buf))
    }
    fn on_rx(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: Packet) {
        let inner = &mut self.inner;
        self.prof
            .span(Layer::Firmware, || inner.on_rx(core, ctx, pkt))
    }
    fn on_timer(&mut self, core: &mut NicCore, ctx: &mut NicCtx, token: u64) {
        let inner = &mut self.inner;
        self.prof
            .span(Layer::Firmware, || inner.on_timer(core, ctx, token))
    }
    fn on_path_reset(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: Packet) {
        let inner = &mut self.inner;
        self.prof
            .span(Layer::Firmware, || inner.on_path_reset(core, ctx, pkt))
    }
    fn on_no_route(&mut self, core: &mut NicCore, ctx: &mut NicCtx, desc: SendDesc) {
        let inner = &mut self.inner;
        self.prof
            .span(Layer::Firmware, || inner.on_no_route(core, ctx, desc))
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// Forwarding `HostAgent` decorator that records a span per call.
pub struct TimedHost {
    inner: Box<dyn HostAgent>,
    prof: Rc<Profiler>,
}

impl TimedHost {
    /// Wrap `inner`.
    pub fn wrap(inner: Box<dyn HostAgent>, prof: &Rc<Profiler>) -> Box<dyn HostAgent> {
        Box::new(Self {
            inner,
            prof: prof.clone(),
        })
    }
}

impl HostAgent for TimedHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        let inner = &mut self.inner;
        self.prof.span(Layer::Host, || inner.on_start(ctx))
    }
    fn on_wake(&mut self, ctx: &mut HostCtx, token: u64) {
        let inner = &mut self.inner;
        self.prof.span(Layer::Host, || inner.on_wake(ctx, token))
    }
    fn on_message(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        let inner = &mut self.inner;
        self.prof.span(Layer::Host, || inner.on_message(ctx, pkt))
    }
    fn on_send_done(&mut self, ctx: &mut HostCtx, msg_id: u64) {
        let inner = &mut self.inner;
        self.prof
            .span(Layer::Host, || inner.on_send_done(ctx, msg_id))
    }
    fn on_send_failed(&mut self, ctx: &mut HostCtx, msg_id: u64, dst: NodeId) {
        let inner = &mut self.inner;
        self.prof
            .span(Layer::Host, || inner.on_send_failed(ctx, msg_id, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run_until [0, 100) ⊃ host [10, 50) ⊃ firmware [20, 30);
        // firmware [60, 70) directly under run_until.
        let spans = [
            span(Layer::RunUntil, 0, 100, NO_PARENT),
            span(Layer::Host, 10, 50, 0),
            span(Layer::Firmware, 20, 30, 1),
            span(Layer::Firmware, 60, 70, 0),
        ];
        let s = split_spans(&spans);
        assert_eq!(s.run_until_s, 100e-9);
        assert!((s.engine_core_s - 50e-9).abs() < 1e-15);
        assert!((s.host_s - 30e-9).abs() < 1e-15);
        assert!((s.firmware_s - 20e-9).abs() < 1e-15);
        assert_eq!((s.host_calls, s.firmware_calls), (1, 2));
        let parts = s.engine_core_s + s.host_s + s.firmware_s;
        assert!(
            (parts - s.run_until_s).abs() < 1e-15,
            "self times sum to the root"
        );
    }

    #[test]
    fn profiler_nests_live_spans() {
        let p = Profiler::new();
        p.span(Layer::RunUntil, || {
            p.span(Layer::Host, || p.span(Layer::Firmware, || ()));
        });
        let s = p.split();
        assert_eq!((s.host_calls, s.firmware_calls), (1, 1));
        let parts = s.engine_core_s + s.host_s + s.firmware_s;
        assert!((parts - s.run_until_s).abs() < 1e-12);
    }
}
