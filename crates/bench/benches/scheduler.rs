//! Criterion microbenchmarks of the event-queue scheduler: the hierarchical
//! timing wheel every simulation runs on, against the reference binary heap
//! it replaced, on the access patterns a fabric simulation actually
//! produces.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use san_des::heap::HeapQueue;
use san_des::wheel::TimingWheel;

const N: u64 = 10_000;

/// The push/pop surface both schedulers share.
trait Queue: Default {
    fn push(&mut self, at: u64, v: u64);
    fn pop(&mut self) -> Option<(u64, u64)>;
}

impl Queue for TimingWheel<u64> {
    fn push(&mut self, at: u64, v: u64) {
        TimingWheel::push(self, at, v)
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        TimingWheel::pop(self)
    }
}

impl Queue for HeapQueue<u64> {
    fn push(&mut self, at: u64, v: u64) {
        HeapQueue::push(self, at, v)
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        HeapQueue::pop(self)
    }
}

fn drain(q: &mut impl Queue) -> u64 {
    let mut acc = 0u64;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

/// Run `pattern` on the wheel and on the heap within one group.
fn compare(c: &mut Criterion, group: &str, wheel: fn() -> u64, heap: fn() -> u64) {
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements(N));
    g.bench_function("wheel", |b| b.iter(|| std::hint::black_box(wheel())));
    g.bench_function("heap", |b| b.iter(|| std::hint::black_box(heap())));
    g.finish();
}

/// Near-horizon uniform churn: hop-latency-scale timers, the steady-state
/// wormhole traffic pattern. The wheel's O(1) home turf.
fn near_horizon_on<Q: Queue>() -> u64 {
    let mut q = Q::default();
    for i in 0..N {
        q.push(i * 37 % 9_999, i);
    }
    drain(&mut q)
}

/// Mixed horizons: mostly hop-scale events with a 1-in-16 sprinkle of
/// far-future timeouts (path-reset and retransmission timers land ms out),
/// forcing the wheel through its overflow tier and cascades.
fn mixed_timers_on<Q: Queue>() -> u64 {
    let mut q = Q::default();
    for i in 0..N {
        let at = if i % 16 == 0 {
            62_000_000 + i * 1_000 // path-reset scale
        } else {
            i * 300 % 50_000 // hop scale
        };
        q.push(at, i);
    }
    drain(&mut q)
}

/// Interleaved push/pop at a bounded working set: the simulation loop's
/// actual shape (pop one event, schedule a couple more nearby).
fn interleaved_on<Q: Queue>() -> u64 {
    let mut q = Q::default();
    for i in 0..64u64 {
        q.push(i * 11, i);
    }
    let mut acc = 0u64;
    for _ in 0..N {
        let (t, v) = q.pop().expect("queue stays primed");
        acc = acc.wrapping_add(v);
        q.push(t + 300 + v % 700, v + 1);
    }
    acc.wrapping_add(drain(&mut q))
}

fn near_horizon(c: &mut Criterion) {
    compare(
        c,
        "scheduler/near_horizon",
        near_horizon_on::<TimingWheel<u64>>,
        near_horizon_on::<HeapQueue<u64>>,
    );
}

fn mixed_timers(c: &mut Criterion) {
    compare(
        c,
        "scheduler/mixed_timers",
        mixed_timers_on::<TimingWheel<u64>>,
        mixed_timers_on::<HeapQueue<u64>>,
    );
}

fn interleaved(c: &mut Criterion) {
    compare(
        c,
        "scheduler/interleaved",
        interleaved_on::<TimingWheel<u64>>,
        interleaved_on::<HeapQueue<u64>>,
    );
}

criterion_group!(benches, near_horizon, mixed_timers, interleaved);
criterion_main!(benches);
