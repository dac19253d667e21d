//! The structured trace ring: a bounded, zero-alloc-on-hot-path recorder
//! of simulation events with virtual-nanosecond timestamps.
//!
//! Recording is gated by an enum — a disabled recorder is a single branch,
//! so un-instrumented runs pay effectively nothing. Enabled recording
//! writes a `Copy` event into a pre-allocated ring, overwriting the oldest
//! events when full (the overwrite count is reported so truncation is
//! never silent). Events can be filtered at record time by layer bitmask
//! and node, keeping deep traces affordable on big clusters.

use std::cell::Cell;
use std::fmt;

/// The protocol layer an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Layer {
    /// Wires, switches, cut-through channels.
    Fabric = 0,
    /// NIC mechanism: DMA engines, send pool, rings.
    Nic = 1,
    /// The paper's reliability firmware and mapper.
    Ft = 2,
    /// User-level communication library.
    Vmmc = 3,
    /// Shared virtual memory protocol.
    Svm = 4,
    /// Host agents / applications.
    Host = 5,
}

impl Layer {
    /// This layer's bit in a filter mask.
    #[inline]
    pub const fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Short lowercase name used by exporters.
    pub const fn name(self) -> &'static str {
        match self {
            Layer::Fabric => "fabric",
            Layer::Nic => "nic",
            Layer::Ft => "ft",
            Layer::Vmmc => "vmmc",
            Layer::Svm => "svm",
            Layer::Host => "host",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// Host posted a send descriptor (`aux` = payload bytes).
    PacketEnqueued = 0,
    /// Packet entered the fabric (`aux` = wire bytes).
    PacketInjected = 1,
    /// Flit head crossed a switch (`aux` = output port).
    PacketHop = 2,
    /// Packet died (`aux` = drop-reason code; fabric layer) or was
    /// suppressed by the error injector before the wire (ft layer).
    PacketDropped = 3,
    /// Fault flipped payload bits; CRC will catch it at the receiver.
    PacketCorrupted = 4,
    /// Tail reached the destination NIC intact (`aux` = payload bytes).
    PacketDelivered = 5,
    /// Receiving NIC DMAed the payload to host memory.
    PacketDeposited = 6,
    /// Explicit or piggybacked cumulative ACK left a node
    /// (`aux` = 1 when piggybacked on data).
    AckSent = 7,
    /// Cumulative ACK advanced the sender window (`aux` = packets freed).
    AckProcessed = 8,
    /// A protocol timer fired (`aux` = timer token).
    TimerFired = 9,
    /// Go-back-N resent a packet (`aux` = queue position).
    Retransmit = 10,
    /// Mapper emitted a probe (`aux` = probe token).
    ProbeSent = 11,
    /// Sender epoch advanced after remapping (`generation` = new epoch).
    GenerationBump = 12,
    /// A DMA engine started a transfer (`aux` = bytes).
    DmaStart = 13,
    /// A DMA engine finished a transfer (`aux` = bytes).
    DmaEnd = 14,
    /// The fabric's path-reset watchdog killed a wedged worm.
    PathReset = 15,
    /// A workload host observed a complete tenant message (`node` = the
    /// receiver, `src`/`dst` = the message endpoints, `aux` packs the
    /// tenant id and delivery latency — see [`TraceEvent::pack_tenant`]).
    TenantDelivered = 16,
    /// The fabric wiring changed while running (live reconfiguration):
    /// `seq` = the new reconfiguration epoch, `aux` = the new wiring
    /// fingerprint. The full delta (changed links/switches) is in the
    /// engine's reconfiguration log, addressable by epoch.
    Reconfig = 17,
}

impl TraceKind {
    /// Short name used by exporters.
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::PacketEnqueued => "enqueued",
            TraceKind::PacketInjected => "injected",
            TraceKind::PacketHop => "hop",
            TraceKind::PacketDropped => "dropped",
            TraceKind::PacketCorrupted => "corrupted",
            TraceKind::PacketDelivered => "delivered",
            TraceKind::PacketDeposited => "deposited",
            TraceKind::AckSent => "ack_sent",
            TraceKind::AckProcessed => "ack_processed",
            TraceKind::TimerFired => "timer_fired",
            TraceKind::Retransmit => "retransmit",
            TraceKind::ProbeSent => "probe_sent",
            TraceKind::GenerationBump => "generation_bump",
            TraceKind::DmaStart => "dma_start",
            TraceKind::DmaEnd => "dma_end",
            TraceKind::PathReset => "path_reset",
            TraceKind::TenantDelivered => "tenant_delivered",
            TraceKind::Reconfig => "reconfig",
        }
    }

    /// True for kinds whose `(src, dst, generation, seq)` identifies a
    /// data packet, so the lifecycle reconstructor can join on them.
    pub const fn is_packet_scoped(self) -> bool {
        matches!(
            self,
            TraceKind::PacketInjected
                | TraceKind::PacketHop
                | TraceKind::PacketDropped
                | TraceKind::PacketCorrupted
                | TraceKind::PacketDelivered
                | TraceKind::PacketDeposited
                | TraceKind::Retransmit
        )
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded event. `Copy` and fixed-size: recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time, nanoseconds since simulation start.
    pub at_ns: u64,
    /// Originating layer.
    pub layer: Layer,
    /// What happened.
    pub kind: TraceKind,
    /// Node observing the event.
    pub node: u16,
    /// Packet source node (when packet-scoped).
    pub src: u16,
    /// Packet destination node (when packet-scoped).
    pub dst: u16,
    /// Sender epoch of the packet or event.
    pub generation: u16,
    /// Sequence number (when packet-scoped).
    pub seq: u32,
    /// Kind-specific extra (bytes, port, reason code, token...).
    pub aux: u64,
}

impl TraceEvent {
    /// Pack a tenant id and a delivery latency into the `aux` word of a
    /// [`TraceKind::TenantDelivered`] event: tenant in the high 16 bits,
    /// latency (nanoseconds, saturated to 48 bits ≈ 78 hours) below it.
    #[inline]
    pub fn pack_tenant(tenant: u16, latency_ns: u64) -> u64 {
        ((tenant as u64) << 48) | latency_ns.min((1 << 48) - 1)
    }

    /// Inverse of [`TraceEvent::pack_tenant`]: `(tenant, latency_ns)`.
    #[inline]
    pub fn unpack_tenant(aux: u64) -> (u16, u64) {
        ((aux >> 48) as u16, aux & ((1 << 48) - 1))
    }

    /// Canonical single-line text form; the determinism test and the CSV
    /// exporter both build on this, so it must stay stable.
    pub fn to_line(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{}",
            self.at_ns,
            self.layer.name(),
            self.kind.name(),
            self.node,
            self.src,
            self.dst,
            self.generation,
            self.seq,
            self.aux
        )
    }
}

/// Record-time filter: which layers and (optionally) which node to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter {
    /// Bitmask of [`Layer::bit`]s to record.
    pub layer_mask: u8,
    /// When set, only events observed at this node are recorded.
    pub node: Option<u16>,
}

impl TraceFilter {
    /// Keep everything.
    pub const fn all() -> Self {
        Self {
            layer_mask: u8::MAX,
            node: None,
        }
    }

    /// Keep only the given layers.
    pub fn layers(layers: &[Layer]) -> Self {
        let mut mask = 0;
        for l in layers {
            mask |= l.bit();
        }
        Self {
            layer_mask: mask,
            node: None,
        }
    }

    /// Restrict (a copy of) this filter to one node.
    pub fn at_node(mut self, node: u16) -> Self {
        self.node = Some(node);
        self
    }

    /// Does `ev` pass?
    #[inline]
    pub fn admits(&self, ev: &TraceEvent) -> bool {
        if self.layer_mask & ev.layer.bit() == 0 {
            return false;
        }
        match self.node {
            Some(n) => ev.node == n,
            None => true,
        }
    }
}

impl Default for TraceFilter {
    fn default() -> Self {
        Self::all()
    }
}

/// Post-hoc queries over a drained trace.
///
/// Consumers (invariant oracles, reports) drain the ring once with
/// [`crate::Telemetry::scan`] and then slice the owned event list by kind,
/// packet stream, or time window without re-walking the ring. All queries
/// preserve recording (oldest-first) order.
#[derive(Debug, Clone)]
pub struct TraceScan {
    events: Vec<TraceEvent>,
    /// Events the ring overwrote before the scan: when nonzero the oldest
    /// part of the history is missing and completeness-style conclusions
    /// ("X never happened") are unsound.
    pub truncated: u64,
}

impl TraceScan {
    /// Wrap an already-drained event list (`truncated` as reported by the
    /// ring at drain time).
    pub fn new(events: Vec<TraceEvent>, truncated: u64) -> Self {
        Self { events, truncated }
    }

    /// Every event, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of one kind, oldest first.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Packet-scoped events of one (src, dst) stream, oldest first.
    pub fn for_pair(&self, src: u16, dst: u16) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.kind.is_packet_scoped() && e.src == src && e.dst == dst)
    }

    /// How many events of `kind` were recorded.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.of_kind(kind).count()
    }

    /// Is there an event at or after `at_ns` satisfying `pred`?
    pub fn any_since(&self, at_ns: u64, mut pred: impl FnMut(&TraceEvent) -> bool) -> bool {
        self.events.iter().any(|e| e.at_ns >= at_ns && pred(e))
    }

    /// Per-tenant message delivery latencies, oldest first, decoded from
    /// [`TraceKind::TenantDelivered`] events as `(tenant, latency_ns)`.
    pub fn tenant_latencies(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.of_kind(TraceKind::TenantDelivered)
            .map(|e| TraceEvent::unpack_tenant(e.aux))
    }

    /// The distinct (src, dst) streams that have packet-scoped events,
    /// in first-appearance order.
    pub fn pairs(&self) -> Vec<(u16, u16)> {
        let mut out = Vec::new();
        for e in &self.events {
            if e.kind.is_packet_scoped() && !out.contains(&(e.src, e.dst)) {
                out.push((e.src, e.dst));
            }
        }
        out
    }
}

/// Fixed-capacity overwrite-oldest event buffer.
///
/// `head` counts every admitted event ever recorded; the slot written is
/// `head % capacity` (capacity is rounded up to a power of two so the
/// modulo is a mask). Oldest-first order and the overwrite count both
/// derive from `head` alone.
#[derive(Debug)]
pub(crate) struct Ring {
    filter: TraceFilter,
    slots: Box<[Cell<TraceEvent>]>,
    mask: u64,
    head: Cell<u64>,
}

impl Ring {
    pub(crate) fn new(capacity: usize, filter: TraceFilter) -> Self {
        assert!(capacity > 0, "trace ring capacity must be nonzero");
        let cap = capacity.next_power_of_two();
        let empty = TraceEvent {
            at_ns: 0,
            layer: Layer::Fabric,
            kind: TraceKind::PacketEnqueued,
            node: 0,
            src: 0,
            dst: 0,
            generation: 0,
            seq: 0,
            aux: 0,
        };
        Self {
            filter,
            slots: (0..cap).map(|_| Cell::new(empty)).collect(),
            mask: cap as u64 - 1,
            head: Cell::new(0),
        }
    }

    #[inline]
    pub(crate) fn push(&self, ev: TraceEvent) {
        if !self.filter.admits(&ev) {
            return;
        }
        let head = self.head.get();
        self.head.set(head + 1);
        self.slots[(head & self.mask) as usize].set(ev);
    }

    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        let head = self.head.get();
        let cap = self.slots.len() as u64;
        let n = head.min(cap);
        let start = if head > cap { head & self.mask } else { 0 };
        (0..n)
            .map(|i| self.slots[((start + i) & self.mask) as usize].get())
            .collect()
    }

    pub(crate) fn overwritten(&self) -> u64 {
        self.head.get().saturating_sub(self.slots.len() as u64)
    }

    pub(crate) fn clear(&self) {
        self.head.set(0);
    }
}

/// The recorder behind a `Telemetry` handle. Disabled tracing is one
/// branch on this enum.
#[derive(Debug)]
pub(crate) enum Recorder {
    /// No ring allocated; `record` is a single discriminant test.
    Off,
    /// Bounded overwrite-oldest ring (see [`Ring`]).
    On(Ring),
}

impl Recorder {
    #[inline]
    pub(crate) fn record(&self, ev: TraceEvent) {
        match self {
            Recorder::Off => {}
            Recorder::On(ring) => ring.push(ev),
        }
    }
}
