//! The NIC model: LANai processor, DMA engines, send-buffer pool, route
//! table, and the firmware hook points.
//!
//! The *mechanisms* every Myrinet control program shares live here (the
//! descriptor pipeline, DMA bookkeeping, probe replies); the *policy* — what
//! to do when data is ready to transmit, when a packet arrives, when a timer
//! fires — is a [`Firmware`] implementation. `san-nic` ships the baseline
//! [`UnreliableFirmware`] (the paper's "No Fault Tolerance" configuration);
//! the paper's contribution, the reliable firmware with retransmission and
//! on-demand mapping, lives in the `san-ft` crate.

use std::collections::VecDeque;

use bytes::Bytes;
use san_fabric::engine::Engine;
use san_fabric::{NodeId, Packet, PacketFlags, PacketKind, Route};
use san_sim::{Resource, Sim, Time};
use san_telemetry::{Counter, Layer, Telemetry, TraceEvent, TraceKind};

use crate::buffer::{BufId, SendPool};
use crate::cluster::{ClusterEvent, HostEvent, NicEvent};
use crate::timing::NicTiming;

/// A send request as posted by the host library (one packet's worth; VMMC
/// segments larger messages before posting, §3.2).
#[derive(Debug, Clone)]
pub struct SendDesc {
    /// Destination host.
    pub dst: NodeId,
    /// Real payload bytes (may be empty when `logical_len` is used).
    pub payload: Bytes,
    /// Logical payload size when `payload` is empty.
    pub logical_len: u32,
    /// True when the host PIO'd the data into SRAM with the descriptor
    /// (messages ≤ 32 B); otherwise the NIC DMAs it from host memory.
    pub pio: bool,
    /// Notify the host when the data has left host memory.
    pub notify: bool,
    /// VMMC message id.
    pub msg_id: u64,
    /// Segment offset within the message.
    pub msg_offset: u32,
    /// Total message length.
    pub msg_len: u32,
    /// Receiver-side buffer (import id).
    pub recv_buf: u32,
    /// Segment flags (FIRST_SEG / LAST_SEG).
    pub flags: PacketFlags,
    /// Tenant stream this segment belongs to (0 = untagged).
    pub tenant: u16,
    /// When the host began the send (for latency breakdowns).
    pub posted_at: Time,
}

impl SendDesc {
    /// Payload length actually carried.
    pub fn len(&self) -> u32 {
        if self.payload.is_empty() {
            self.logical_len
        } else {
            self.payload.len() as u32
        }
    }
    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-NIC statistics.
///
/// Counters are `Arc`-backed telemetry cells: a default-constructed value
/// is private to the NIC, while [`NicStats::registered`] shares each cell
/// with a [`Telemetry`] registry under `nic.node.<n>.*` (hardware
/// mechanisms) and `ft.node.<n>.*` (reliability-protocol policy), so
/// exporters see live values without a copy step.
#[derive(Debug, Default, Clone)]
pub struct NicStats {
    /// Send descriptors accepted.
    pub descs_posted: Counter,
    /// Data packets put on the wire (first transmissions).
    pub packets_tx: Counter,
    /// Packets retransmitted.
    pub retransmits: Counter,
    /// Packets whose first transmission was suppressed by the error
    /// injector (the paper's §5.1.3 mechanism).
    pub injected_drops: Counter,
    /// CRC-valid packets received (all kinds).
    pub packets_rx: Counter,
    /// Packets dropped for CRC failure.
    pub crc_drops: Counter,
    /// In-order data packets accepted and deposited.
    pub data_accepted: Counter,
    /// Out-of-order packets dropped by the receiver (no buffering, §4.1.1).
    pub ooo_drops: Counter,
    /// Duplicate packets dropped.
    pub dup_drops: Counter,
    /// Stale-generation packets dropped.
    pub stale_gen_drops: Counter,
    /// Explicit ACK packets sent.
    pub acks_tx: Counter,
    /// ACKs processed (explicit + piggy-backed).
    pub acks_rx: Counter,
    /// Retransmission-timer firings.
    pub timer_fires: Counter,
    /// Times the send path blocked on an empty free-buffer list.
    pub blocked_no_buffer: Counter,
    /// Mapping probes sent.
    pub probes_tx: Counter,
    /// Probe replies sent (as the probed host).
    pub probe_replies_tx: Counter,
    /// Path resets observed by this sender.
    pub path_resets: Counter,
    /// Descriptors abandoned because no route exists (unreliable firmware)
    /// or the destination was declared unreachable (reliable firmware).
    pub unroutable: Counter,
    /// Packets dropped because the receive ring was full (the LANai could
    /// not keep up with arrivals — only happens under retransmission storms
    /// or incast overload; recovered like any other loss).
    pub rx_overflow: Counter,
}

impl NicStats {
    /// Stats whose cells are registered in `tel` for node `node`:
    /// hardware-mechanism counters under `nic.node.<n>.*`, reliability-
    /// protocol counters under `ft.node.<n>.*`.
    pub fn registered(tel: &Telemetry, node: NodeId) -> Self {
        let nic = |leaf: &str| tel.counter(&format!("nic.node.{}.{leaf}", node.0));
        let ft = |leaf: &str| tel.counter(&format!("ft.node.{}.{leaf}", node.0));
        Self {
            descs_posted: nic("descs_posted"),
            packets_tx: nic("packets_tx"),
            retransmits: ft("retransmits"),
            injected_drops: ft("injected_drops"),
            packets_rx: nic("packets_rx"),
            crc_drops: nic("crc_drops"),
            data_accepted: nic("data_accepted"),
            ooo_drops: ft("ooo_drops"),
            dup_drops: ft("dup_drops"),
            stale_gen_drops: ft("stale_gen_drops"),
            acks_tx: ft("acks_tx"),
            acks_rx: ft("acks_rx"),
            timer_fires: ft("timer_fires"),
            blocked_no_buffer: nic("blocked_no_buffer"),
            probes_tx: ft("probes_tx"),
            probe_replies_tx: ft("probe_replies_tx"),
            path_resets: nic("path_resets"),
            unroutable: nic("unroutable"),
            rx_overflow: nic("rx_overflow"),
        }
    }
}

/// Per-destination route table.
///
/// A source route from a fixed NIC determines its endpoint, so no two
/// destinations share a route and there is nothing to deduplicate. A table
/// may hold one route (a permutation) or one per peer (all-pairs routes),
/// so each destination holds a 4-byte slot index into a dense store that
/// grows only with the destinations ever set. A destination claims its
/// slot on the first `set` and keeps it: later `set`s overwrite the route
/// in place and `invalidate` clears it in place, so remapping one
/// destination never grows the table.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Slot of each destination in `routes`; `NO_SLOT` until its first `set`.
    slot: Vec<u32>,
    routes: Vec<Option<Route>>,
}

const NO_SLOT: u32 = u32::MAX;

impl RouteTable {
    /// A table for `n` destinations, all unknown.
    pub fn new(n: usize) -> Self {
        Self {
            slot: vec![NO_SLOT; n],
            routes: Vec::new(),
        }
    }
    /// Route to `dst`, if known.
    pub fn get(&self, dst: NodeId) -> Option<Route> {
        let slot = *self.slot.get(dst.idx())?;
        *self.routes.get(slot as usize)?
    }
    /// Install a route.
    pub fn set(&mut self, dst: NodeId, r: Route) {
        let slot = &mut self.slot[dst.idx()];
        if *slot == NO_SLOT {
            *slot = self.routes.len() as u32;
            self.routes.push(Some(r));
        } else {
            self.routes[*slot as usize] = Some(r);
        }
    }
    /// Forget a route (permanent-failure handling).
    pub fn invalidate(&mut self, dst: NodeId) {
        let slot = self.slot[dst.idx()];
        if slot != NO_SLOT {
            self.routes[slot as usize] = None;
        }
    }
    /// Number of known routes.
    pub fn known(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }
}

/// The shared mechanisms of a NIC.
#[derive(Debug)]
pub struct NicCore {
    /// This NIC's host id.
    pub node: NodeId,
    /// Cost model.
    pub timing: NicTiming,
    /// The LANai control processor.
    pub cpu: Resource,
    /// Host↔SRAM DMA engine (PCI bus).
    pub host_dma: Resource,
    /// SRAM→network DMA engine.
    pub net_tx: Resource,
    /// Send buffers.
    pub pool: SendPool,
    /// Send descriptors waiting for a free buffer.
    pub pending: VecDeque<SendDesc>,
    /// Known routes.
    pub routes: RouteTable,
    /// Statistics.
    pub stats: NicStats,
    /// Observability handle (shared with the whole simulation).
    pub telemetry: Telemetry,
    needs_pump: bool,
    /// Packets delivered by the fabric but not yet picked up by the LANai.
    rx_inflight: u32,
    /// The MCP services send descriptors strictly in order: a PIO
    /// descriptor (data available immediately) must not overtake an earlier
    /// DMA descriptor still crossing the PCI bus. This watermark enforces
    /// FIFO hand-off to the transmit policy.
    fifo_tx_ready: Time,
}

/// Mutable simulation context handed to NIC/firmware code.
pub struct NicCtx<'a> {
    /// The event queue / clock.
    pub sim: &'a mut Sim<ClusterEvent>,
    /// The fabric.
    pub engine: &'a mut Engine,
}

impl NicCtx<'_> {
    /// Current time.
    #[inline]
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Inject a packet into the fabric, discarding synchronous drop reports
    /// (the engine's statistics retain them; senders learn of losses only
    /// through the reliability protocol, as on real hardware).
    pub fn inject(&mut self, pkt: Packet) {
        let mut scratch = Vec::new();
        self.engine.inject(self.sim, pkt, &mut scratch);
        // Synchronous outputs can only be drops (dead first link / no link).
        debug_assert!(scratch
            .iter()
            .all(|o| matches!(o, san_fabric::engine::FabricOut::Dropped { .. })));
    }
}

impl NicCore {
    /// Build a NIC core with a private (unexported) telemetry handle.
    pub fn new(node: NodeId, timing: NicTiming, send_bufs: u16, n_nodes: usize) -> Self {
        Self::with_telemetry(node, timing, send_bufs, n_nodes, Telemetry::new())
    }

    /// Build a NIC core whose stats counters are registered in `tel`
    /// (`nic.node.<n>.*` / `ft.node.<n>.*`) and whose DMA/descriptor
    /// activity is traced through it.
    pub fn with_telemetry(
        node: NodeId,
        timing: NicTiming,
        send_bufs: u16,
        n_nodes: usize,
        tel: Telemetry,
    ) -> Self {
        // Receive buffering is a bounded ring: the control program recycles
        // a fixed buffer set no matter how many peers exist (a per-peer
        // reservation would overflow the 2 MB SRAM past ~400 nodes).
        let recv_ring = (n_nodes as u16 + 4).min(64);
        let pool = SendPool::new(send_bufs, recv_ring).expect("NIC configuration exceeds SRAM");
        Self {
            node,
            timing,
            cpu: Resource::new("lanai"),
            host_dma: Resource::new("pci-dma"),
            net_tx: Resource::new("net-tx"),
            pool,
            pending: VecDeque::new(),
            routes: RouteTable::new(n_nodes),
            stats: NicStats::registered(&tel, node),
            telemetry: tel,
            needs_pump: false,
            rx_inflight: 0,
            fifo_tx_ready: Time::ZERO,
        }
    }

    /// Build a NIC-layer trace event about `pkt` observed at this node.
    pub fn trace_pkt(&self, at: Time, kind: TraceKind, pkt: &Packet, aux: u64) -> TraceEvent {
        TraceEvent {
            at_ns: at.nanos(),
            layer: Layer::Nic,
            kind,
            node: self.node.0,
            src: pkt.src.0,
            dst: pkt.dst.0,
            generation: pkt.generation,
            seq: pkt.seq,
            aux,
        }
    }

    /// Firmware can request a descriptor-pump after it frees buffers.
    pub fn request_pump(&mut self) {
        self.needs_pump = true;
    }

    pub(crate) fn take_pump_request(&mut self) -> bool {
        std::mem::take(&mut self.needs_pump)
    }

    /// Put the packet held in `buf` on the wire: reserves the network DMA,
    /// schedules the fabric injection at the DMA start, and reports the DMA
    /// completion to the firmware via [`NicEvent::TxInjected`].
    ///
    /// The packet is cloned (SRAM keeps the original for retransmission) and
    /// sealed with its CRC at the reservation point.
    pub fn transmit(&mut self, ctx: &mut NicCtx, buf: BufId) {
        let now = ctx.now();
        self.transmit_from(ctx, buf, now);
    }

    /// Like [`NicCore::transmit`], but the network DMA may not start before
    /// `earliest` — used by firmware whose processing (charged on the LANai)
    /// must complete before the packet can leave.
    pub fn transmit_from(&mut self, ctx: &mut NicCtx, buf: BufId, earliest: Time) {
        let mut pkt = self.pool.pkt(buf).clone();
        pkt.seal();
        let ser = ctx.engine.serialization(pkt.wire_bytes());
        let (start, done) = self.net_tx.acquire_window(ctx.now().max(earliest), ser);
        self.pool.mark_tx(buf, start);
        let node = self.node;
        ctx.sim.schedule(
            start,
            ClusterEvent::Nic(node, NicEvent::Inject { pkt: Box::new(pkt) }),
        );
        ctx.sim
            .schedule(done, ClusterEvent::Nic(node, NicEvent::TxInjected { buf }));
    }

    /// Transmit a packet that does not live in the send pool (explicit ACKs
    /// and mapping probes — short, regenerable control traffic).
    pub fn transmit_unpooled(&mut self, ctx: &mut NicCtx, pkt: Packet) {
        let now = ctx.now();
        self.transmit_unpooled_from(ctx, pkt, now);
    }

    /// [`NicCore::transmit_unpooled`] with an earliest network-DMA start.
    pub fn transmit_unpooled_from(&mut self, ctx: &mut NicCtx, mut pkt: Packet, earliest: Time) {
        pkt.seal();
        let ser = ctx.engine.serialization(pkt.wire_bytes());
        let (start, _done) = self.net_tx.acquire_window(ctx.now().max(earliest), ser);
        let node = self.node;
        ctx.sim.schedule(
            start,
            ClusterEvent::Nic(node, NicEvent::Inject { pkt: Box::new(pkt) }),
        );
    }

    /// DMA a received data packet into host memory and notify the process.
    /// Returns the instant the deposit completes.
    pub fn deposit(&mut self, ctx: &mut NicCtx, pkt: Packet) -> Time {
        let now = ctx.now();
        self.deposit_from(ctx, pkt, now)
    }

    /// [`NicCore::deposit`] with an earliest host-DMA start (receive-side
    /// firmware processing must finish first). Returns the completion time.
    pub fn deposit_from(&mut self, ctx: &mut NicCtx, mut pkt: Packet, earliest: Time) -> Time {
        let cost = self.timing.host_dma(pkt.payload_len);
        let (start, done) = self.host_dma.acquire_window(ctx.now().max(earliest), cost);
        let bytes = pkt.payload_len as u64;
        self.telemetry
            .record(self.trace_pkt(start, TraceKind::DmaStart, &pkt, bytes));
        self.telemetry
            .record(self.trace_pkt(done, TraceKind::DmaEnd, &pkt, bytes));
        self.telemetry
            .record(self.trace_pkt(done, TraceKind::PacketDeposited, &pkt, bytes));
        pkt.stamps.deposited = done;
        let seen = done + self.timing.host_notify + self.timing.host_recv_check;
        pkt.stamps.host_seen = seen;
        let node = self.node;
        ctx.sim.schedule(
            seen,
            ClusterEvent::Host(node, HostEvent::Deliver { pkt: Box::new(pkt) }),
        );
        done
    }

    /// Build the standard probe reply (this NIC's identity) for a host probe
    /// and send it back along the recorded reverse route. Standard MCP
    /// behaviour, available under any firmware.
    pub fn reply_to_probe(&mut self, ctx: &mut NicCtx, probe: &Packet) {
        let t = self.cpu.acquire(ctx.now(), self.timing.probe_proc);
        let mut reply = Packet::new(self.node, probe.src, PacketKind::ProbeReply);
        reply.msg_id = probe.msg_id;
        reply.route = probe.reverse_route;
        // Identity payload: the node id (hosts have identities; switches do
        // not — that asymmetry is what makes mapping hard, §6.2).
        reply.payload_len = 8;
        self.stats.probe_replies_tx.hit();
        self.transmit_unpooled_from(ctx, reply, t);
    }
}

/// Policy hooks: what distinguishes one MCP from another.
pub trait Firmware {
    /// Human-readable firmware name (for reports).
    fn name(&self) -> &'static str;

    /// Called once when the cluster starts.
    fn on_start(&mut self, core: &mut NicCore, ctx: &mut NicCtx);

    /// A descriptor's data is in SRAM in `buf`; decide protocol fields and
    /// transmit (or hold).
    fn on_tx_ready(&mut self, core: &mut NicCore, ctx: &mut NicCtx, buf: BufId);

    /// The network DMA finished reading `buf`; the firmware decides whether
    /// the buffer is now free (unreliable) or must await an ACK (reliable).
    fn on_tx_injected(&mut self, core: &mut NicCore, ctx: &mut NicCtx, buf: BufId);

    /// A CRC-valid packet arrived for this NIC.
    fn on_rx(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: Packet);

    /// A firmware timer fired.
    fn on_timer(&mut self, core: &mut NicCore, ctx: &mut NicCtx, token: u64);

    /// The hardware reset this NIC's blocked send path; `pkt` was dropped.
    fn on_path_reset(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: Packet);

    /// No route is known for `desc.dst`. The firmware may queue the
    /// descriptor and start mapping (reliable) or abandon it (unreliable).
    fn on_no_route(&mut self, core: &mut NicCore, ctx: &mut NicCtx, desc: SendDesc);

    /// Narrowing hook so harnesses can reach firmware-specific state
    /// (e.g. the reliable firmware's mapper statistics).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable narrowing hook — harnesses that feed firmware-specific
    /// inputs (e.g. planner route hints to the reliable firmware's mapper).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A NIC: mechanisms + policy.
pub struct Nic {
    /// Shared mechanisms.
    pub core: NicCore,
    /// Loaded control program.
    pub fw: Box<dyn Firmware>,
}

impl Nic {
    /// Assemble a NIC.
    pub fn new(core: NicCore, fw: Box<dyn Firmware>) -> Self {
        Self { core, fw }
    }

    /// Host posts a send descriptor.
    pub fn post_send(&mut self, ctx: &mut NicCtx, desc: SendDesc) {
        self.core.stats.descs_posted.hit();
        self.core.telemetry.record(TraceEvent {
            at_ns: ctx.now().nanos(),
            layer: Layer::Nic,
            kind: TraceKind::PacketEnqueued,
            node: self.core.node.0,
            src: self.core.node.0,
            dst: desc.dst.0,
            generation: 0,
            seq: 0,
            aux: desc.len() as u64,
        });
        self.core.pending.push_back(desc);
        self.pump(ctx);
    }

    /// Drain pending descriptors into send buffers while buffers are free.
    pub fn pump(&mut self, ctx: &mut NicCtx) {
        loop {
            if self.core.pending.is_empty() {
                return;
            }
            // Route check first: a missing route must not consume a buffer.
            let dst = self.core.pending.front().unwrap().dst;
            let Some(route) = self.core.routes.get(dst) else {
                let desc = self.core.pending.pop_front().unwrap();
                self.fw.on_no_route(&mut self.core, ctx, desc);
                continue;
            };
            if self.core.pool.free_count() == 0 {
                self.core.stats.blocked_no_buffer.hit();
                return;
            }
            let desc = self.core.pending.pop_front().unwrap();
            self.admit(ctx, desc, route);
        }
    }

    /// Claim a buffer for `desc` and run the data-to-SRAM pipeline.
    fn admit(&mut self, ctx: &mut NicCtx, desc: SendDesc, route: Route) {
        let core = &mut self.core;
        let now = ctx.now();
        let mut pkt = Packet::new(core.node, desc.dst, PacketKind::Data);
        pkt.route = route;
        pkt.msg_id = desc.msg_id;
        pkt.msg_offset = desc.msg_offset;
        pkt.msg_len = desc.msg_len;
        pkt.recv_buf = desc.recv_buf;
        pkt.flags = desc.flags;
        pkt.tenant = desc.tenant;
        pkt.stamps.host_post = desc.posted_at;
        pkt.stamps.nic_tx_start = now;
        // A descriptor may carry real bytes, a logical size, or both (a real
        // header padded to a bulk logical size): the wire length is the
        // larger of the two.
        pkt.payload_len = desc.logical_len.max(desc.payload.len() as u32);
        pkt.payload = desc.payload.clone();
        let len = pkt.payload_len;
        let buf = core.pool.alloc(pkt).expect("pump checked free_count");
        // Descriptor fetch on the LANai...
        let t1 = core.cpu.acquire(now, core.timing.send_desc_proc);
        // ...then the payload reaches SRAM (PIO: it came with the
        // descriptor; DMA: PCI transfer). Header building is charged when
        // the data actually lands (TxData handler) — pre-booking a future
        // CPU slot here would falsely serialize every later descriptor
        // behind it.
        let data_ready = if desc.pio {
            t1
        } else {
            let (s, d) = core.host_dma.acquire_window(t1, core.timing.host_dma(len));
            let pkt = core.pool.pkt(buf);
            core.telemetry
                .record(core.trace_pkt(s, TraceKind::DmaStart, pkt, len as u64));
            core.telemetry
                .record(core.trace_pkt(d, TraceKind::DmaEnd, pkt, len as u64));
            d
        };
        // FIFO service order (see `fifo_tx_ready`).
        let data_ready = data_ready.max(core.fifo_tx_ready);
        core.fifo_tx_ready = data_ready;
        let node = core.node;
        ctx.sim.schedule(
            data_ready,
            ClusterEvent::Nic(node, NicEvent::TxData { buf }),
        );
        if desc.notify {
            let freed = if desc.pio { t1 } else { data_ready };
            ctx.sim.schedule(
                freed,
                ClusterEvent::Host(
                    node,
                    HostEvent::SendDone {
                        msg_id: desc.msg_id,
                    },
                ),
            );
        }
    }

    /// Receive-ring capacity: arrivals the LANai has not yet dequeued. On
    /// the real NIC this is bounded by SRAM receive buffers; packets beyond
    /// it are lost exactly like wire loss and recovered by retransmission.
    /// It only fills under retransmission storms or severe incast.
    pub const RX_RING: u32 = 64;

    /// A packet arrived from the fabric for this NIC.
    pub fn on_delivered(&mut self, ctx: &mut NicCtx, pkt: Packet) {
        if self.core.rx_inflight >= Self::RX_RING {
            self.core.stats.rx_overflow.hit();
            return;
        }
        self.core.rx_inflight += 1;
        let t1 = self.core.cpu.acquire(ctx.now(), self.core.timing.rx_proc);
        let node = self.core.node;
        ctx.sim.schedule(
            t1,
            ClusterEvent::Nic(node, NicEvent::RxProcess { pkt: Box::new(pkt) }),
        );
    }

    /// Dispatch a NIC event (called by the cluster loop).
    pub fn handle(&mut self, ctx: &mut NicCtx, ev: NicEvent) {
        match ev {
            NicEvent::TxData { buf } => {
                // Payload is in SRAM: build the header, then hand to the
                // firmware's transmit policy.
                let hdr_done = self
                    .core
                    .cpu
                    .acquire(ctx.now(), self.core.timing.send_hdr_build);
                let node = self.core.node;
                ctx.sim
                    .schedule(hdr_done, ClusterEvent::Nic(node, NicEvent::TxReady { buf }));
            }
            NicEvent::TxReady { buf } => {
                self.fw.on_tx_ready(&mut self.core, ctx, buf);
            }
            NicEvent::Inject { pkt } => {
                ctx.inject(*pkt);
            }
            NicEvent::TxInjected { buf } => {
                self.fw.on_tx_injected(&mut self.core, ctx, buf);
            }
            NicEvent::RxProcess { pkt } => {
                self.core.rx_inflight = self.core.rx_inflight.saturating_sub(1);
                let pkt = *pkt;
                if !pkt.crc_ok() {
                    self.core.stats.crc_drops.hit();
                } else {
                    self.core.stats.packets_rx.hit();
                    if pkt.kind == PacketKind::ProbeHost {
                        // Any host answers a host probe with its identity —
                        // the prober does not know who sits at the end of the
                        // route (that is the point of probing).
                        self.core.reply_to_probe(ctx, &pkt);
                    } else {
                        self.fw.on_rx(&mut self.core, ctx, pkt);
                    }
                }
            }
            NicEvent::Timer { token } => {
                self.fw.on_timer(&mut self.core, ctx, token);
            }
        }
        if self.core.take_pump_request() {
            self.pump(ctx);
        }
    }

    /// Fabric told us our send path was reset (deadlock recovery).
    pub fn on_path_reset(&mut self, ctx: &mut NicCtx, pkt: Packet) {
        self.core.stats.path_resets.hit();
        self.fw.on_path_reset(&mut self.core, ctx, pkt);
        if self.core.take_pump_request() {
            self.pump(ctx);
        }
    }

    /// Start-of-run hook.
    pub fn on_start(&mut self, ctx: &mut NicCtx) {
        self.fw.on_start(&mut self.core, ctx);
    }
}

/// The "No Fault Tolerance" control program: transmit, free the buffer when
/// the network DMA is done, deposit whatever arrives in order of arrival.
/// Network errors are silently fatal to the data (the BIP/FM model, §2).
#[derive(Debug, Default)]
pub struct UnreliableFirmware;

impl Firmware for UnreliableFirmware {
    fn name(&self) -> &'static str {
        "no-ft"
    }

    fn on_start(&mut self, _core: &mut NicCore, _ctx: &mut NicCtx) {}

    fn on_tx_ready(&mut self, core: &mut NicCore, ctx: &mut NicCtx, buf: BufId) {
        core.stats.packets_tx.hit();
        core.transmit(ctx, buf);
    }

    fn on_tx_injected(&mut self, core: &mut NicCore, _ctx: &mut NicCtx, buf: BufId) {
        core.pool.release(buf);
        core.request_pump();
    }

    fn on_rx(&mut self, core: &mut NicCore, ctx: &mut NicCtx, pkt: Packet) {
        match pkt.kind {
            PacketKind::Data | PacketKind::Raw => {
                core.stats.data_accepted.hit();
                core.deposit(ctx, pkt);
            }
            // No reliability protocol: control traffic is ignored.
            _ => {}
        }
    }

    fn on_timer(&mut self, _core: &mut NicCore, _ctx: &mut NicCtx, _token: u64) {}

    fn on_path_reset(&mut self, _core: &mut NicCore, _ctx: &mut NicCtx, _pkt: Packet) {
        // The packet is simply lost.
    }

    fn on_no_route(&mut self, core: &mut NicCore, _ctx: &mut NicCtx, _desc: SendDesc) {
        core.stats.unroutable.hit();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_table_set_get_invalidate() {
        let mut rt = RouteTable::new(4);
        assert_eq!(rt.known(), 0);
        assert!(rt.get(NodeId(2)).is_none());
        rt.set(NodeId(2), Route::from_ports(&[1, 3]));
        assert_eq!(rt.get(NodeId(2)).unwrap().ports(), &[1, 3]);
        assert_eq!(rt.known(), 1);
        rt.set(NodeId(0), Route::from_ports(&[7]));
        assert_eq!(rt.known(), 2);
        rt.invalidate(NodeId(2));
        assert!(rt.get(NodeId(2)).is_none());
        assert_eq!(rt.known(), 1);
        // Out-of-range lookups are None, not panics.
        assert!(rt.get(NodeId(99)).is_none());
        // Re-set after invalidate: the route is back and counted once.
        rt.set(NodeId(2), Route::from_ports(&[4]));
        assert_eq!(rt.get(NodeId(2)).unwrap().ports(), &[4]);
        assert_eq!(rt.known(), 2);
        // Overwriting a known route replaces it without adding an entry.
        rt.set(NodeId(0), Route::from_ports(&[2, 5, 6]));
        assert_eq!(rt.get(NodeId(0)).unwrap().ports(), &[2, 5, 6]);
        assert_eq!(rt.known(), 2);
        // Invalidating a never-set destination leaves the others alone.
        rt.invalidate(NodeId(3));
        assert_eq!(rt.known(), 2);
        // 100 remaps of one destination leave exactly one known route.
        let mut one = RouteTable::new(4);
        for i in 0..100u8 {
            one.set(NodeId(1), Route::from_ports(&[i % 8, i / 8]));
            if i % 3 == 0 {
                one.invalidate(NodeId(1));
                one.set(NodeId(1), Route::from_ports(&[i % 8, i / 8]));
            }
        }
        assert_eq!(one.known(), 1);
        assert_eq!(one.routes.len(), 1, "remaps reuse the destination's slot");
        assert_eq!(one.get(NodeId(1)).unwrap().ports(), &[99 % 8, 99 / 8]);
        assert!(one.get(NodeId(0)).is_none());
    }

    #[test]
    fn send_desc_length_semantics() {
        let mut d = SendDesc {
            dst: NodeId(1),
            payload: Bytes::new(),
            logical_len: 4096,
            pio: false,
            notify: false,
            msg_id: 0,
            msg_offset: 0,
            msg_len: 4096,
            recv_buf: 0,
            flags: PacketFlags::default(),
            tenant: 0,
            posted_at: Time::ZERO,
        };
        assert_eq!(d.len(), 4096);
        assert!(!d.is_empty());
        d.payload = Bytes::from_static(b"xyz");
        assert_eq!(d.len(), 3, "real bytes win over logical length");
        d.payload = Bytes::new();
        d.logical_len = 0;
        assert!(d.is_empty());
    }

    #[test]
    fn nic_core_respects_sram_budget() {
        // 128 buffers + per-node receive buffers is the paper's maximum and
        // must fit; beyond it the constructor panics via SendPool.
        let core = NicCore::new(NodeId(0), NicTiming::default(), 128, 16);
        assert_eq!(core.pool.capacity(), 128);
        assert_eq!(core.stats.packets_tx.get(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds SRAM")]
    fn oversized_pool_panics() {
        let _ = NicCore::new(NodeId(0), NicTiming::default(), 450, 64);
    }
}
