//! Transport fault injection: a seeded chaos layer over any transport.
//!
//! [`FaultyTransport`] wraps a [`Transport`] and perturbs its *send*
//! half according to a [`FaultPlan`]: frames may be dropped, duplicated,
//! reordered within a bounded window, corrupted (payload bytes flipped),
//! stalled for a configured pause, or withheld and released in a burst.
//! Every decision comes from one seeded RNG, so a chaos run is exactly
//! reproducible from its plan — the property the `t_chaos` acceptance
//! matrix and any bisecting postmortem depend on.
//!
//! Faults are injected on the sending side because that is where the
//! network lives: the receive half is the unit under test (hardened
//! decode, liveness, reconnect) and passes through untouched. Wrap the
//! client side of a connection to torture a server, or the server-facing
//! endpoint of an in-process pair to torture a client.
//!
//! Corruption flips bytes strictly *after* the frame header, so a byte
//! stream (TCP) stays framed and exercises the frame-scoped reject path
//! rather than instantly desyncing; header corruption — the unrecoverable
//! case — is a deliberate separate switch ([`FaultPlan::corrupt_header`]).

use crate::pool::PooledBuf;
use crate::transport::{Transport, TransportTx};
use crate::wire::HEADER_LEN;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A seeded schedule of transport faults. Probabilities are per frame in
/// `0.0..=1.0`; a default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed: the whole fault sequence is a pure function of this.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is sent twice back to back.
    pub duplicate: f64,
    /// Probability a frame is held back and overtaken by later frames.
    pub reorder: f64,
    /// How many subsequent frames may overtake a held frame before it is
    /// flushed (bounds reordering, like a real queue does).
    pub reorder_window: usize,
    /// Probability a frame has payload bytes flipped before sending.
    pub corrupt: f64,
    /// Corrupt the frame *header* too (magic/length bytes): desyncs a
    /// byte stream irrecoverably. Off by default so corruption exercises
    /// the frame-scoped recovery path.
    pub corrupt_header: bool,
    /// Probability the sender stalls for [`FaultPlan::stall_ms`] before
    /// a frame.
    pub stall: f64,
    /// Stall duration (ms).
    pub stall_ms: u64,
    /// Probability a burst cycle begins: this and the following frames
    /// are withheld until [`FaultPlan::burst_len`] have accumulated, then
    /// released back to back (a pause-then-burst, like a retransmit
    /// queue opening).
    pub burst: f64,
    /// Frames per burst cycle.
    pub burst_len: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: 3,
            corrupt: 0.0,
            corrupt_header: false,
            stall: 0.0,
            stall_ms: 20,
            burst: 0.0,
            burst_len: 8,
        }
    }
}

impl FaultPlan {
    /// A plan injecting nothing (still seeded, for uniform plumbing).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Fluent construction: `FaultPlan::builder(seed).drop(0.1).build()`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::none(seed),
        }
    }
}

/// Fluent construction for [`FaultPlan`] — see [`FaultPlan::builder`].
///
/// Starts from [`FaultPlan::none`] (everything off) and layers faults on;
/// [`Self::build`] yields the finished plan.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Probability a frame is silently dropped.
    pub fn drop(mut self, p: f64) -> Self {
        self.plan.drop = p;
        self
    }

    /// Probability a frame is sent twice back to back.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.plan.duplicate = p;
        self
    }

    /// Probability a frame is held back, with the overtake window (≥ 1)
    /// bounding how far it can slip.
    pub fn reorder(mut self, p: f64, window: usize) -> Self {
        self.plan.reorder = p;
        self.plan.reorder_window = window.max(1);
        self
    }

    /// Probability a frame has payload bytes flipped before sending.
    pub fn corrupt(mut self, p: f64) -> Self {
        self.plan.corrupt = p;
        self
    }

    /// Whether corruption may hit the frame *header* too (desyncing a
    /// byte stream irrecoverably).
    pub fn corrupt_header(mut self, yes: bool) -> Self {
        self.plan.corrupt_header = yes;
        self
    }

    /// Probability the sender stalls, and for how long (ms).
    pub fn stall(mut self, p: f64, stall_ms: u64) -> Self {
        self.plan.stall = p;
        self.plan.stall_ms = stall_ms;
        self
    }

    /// Probability a pause-then-burst cycle begins, and its length (≥ 2).
    pub fn burst(mut self, p: f64, burst_len: usize) -> Self {
        self.plan.burst = p;
        self.plan.burst_len = burst_len.max(2);
        self
    }

    /// The finished plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

/// A live, swappable handle on a fault layer's plan.
///
/// Cloneable; [`FaultPlanHandle::set`] takes effect on the very next
/// frame, so a harness can phase a run — clean warmup, fault window,
/// clean recovery — over one connection. Swapping the plan does *not*
/// reseed the fault RNG: the whole run stays a pure function of the
/// construction-time seed plus the (deterministic) switch points.
#[derive(Clone)]
pub struct FaultPlanHandle(Arc<Mutex<FaultPlan>>);

impl FaultPlanHandle {
    fn new(plan: FaultPlan) -> FaultPlanHandle {
        FaultPlanHandle(Arc::new(Mutex::new(plan)))
    }

    /// Replaces the active plan, starting with the next frame sent.
    pub fn set(&self, plan: FaultPlan) {
        *self.0.lock().expect("fault plan poisoned") = plan;
    }

    /// The currently active plan.
    pub fn get(&self) -> FaultPlan {
        *self.0.lock().expect("fault plan poisoned")
    }
}

/// Counters of every fault actually injected (shared across the split).
#[derive(Debug, Default)]
pub struct FaultCounters {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    corrupted: AtomicU64,
    stalls: AtomicU64,
    bursts: AtomicU64,
}

/// A point-in-time copy of a fault layer's injection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames sent twice.
    pub duplicated: u64,
    /// Frames held back and overtaken.
    pub reordered: u64,
    /// Frames with flipped payload bytes.
    pub corrupted: u64,
    /// Stalls injected.
    pub stalls: u64,
    /// Burst cycles begun.
    pub bursts: u64,
}

impl FaultCounters {
    /// A point-in-time copy of the injection counters.
    pub fn snapshot(&self) -> FaultStats {
        FaultStats {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            bursts: self.bursts.load(Ordering::Relaxed),
        }
    }
}

/// A transport whose send half injects the faults of a [`FaultPlan`].
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlanHandle,
    counters: Arc<FaultCounters>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`; frames sent through the split-off tx half suffer
    /// the plan's faults.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            plan: FaultPlanHandle::new(plan),
            counters: Arc::new(FaultCounters::default()),
        }
    }

    /// A live handle onto the injection counters (survives the split).
    pub fn counters(&self) -> Arc<FaultCounters> {
        Arc::clone(&self.counters)
    }

    /// A live handle onto the plan (survives the split): swap it to
    /// phase faults on and off mid-run.
    pub fn plan_handle(&self) -> FaultPlanHandle {
        self.plan.clone()
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    type Tx = FaultyTx<T::Tx>;
    type Rx = T::Rx;

    fn split(self) -> io::Result<(FaultyTx<T::Tx>, T::Rx)> {
        let (tx, rx) = self.inner.split()?;
        Ok((FaultyTx::with_shared(tx, self.plan, self.counters), rx))
    }
}

/// The fault-injecting send half (wrap any [`TransportTx`] directly via
/// [`FaultyTx::new`]).
pub struct FaultyTx<Tx: TransportTx> {
    inner: Tx,
    plan: FaultPlanHandle,
    rng: StdRng,
    /// Frames held back by reorder/burst, with the number of later sends
    /// each has already been overtaken by.
    held: VecDeque<(Vec<u8>, usize)>,
    /// Frames still owed to the current burst cycle (0 = no burst open).
    burst_remaining: usize,
    counters: Arc<FaultCounters>,
}

impl<Tx: TransportTx> FaultyTx<Tx> {
    /// Wraps a bare send half with its own counter set.
    pub fn new(inner: Tx, plan: FaultPlan) -> FaultyTx<Tx> {
        Self::with_shared(
            inner,
            FaultPlanHandle::new(plan),
            Arc::new(FaultCounters::default()),
        )
    }

    fn with_shared(inner: Tx, plan: FaultPlanHandle, counters: Arc<FaultCounters>) -> FaultyTx<Tx> {
        FaultyTx {
            inner,
            rng: StdRng::seed_from_u64(plan.get().seed),
            plan,
            held: VecDeque::new(),
            burst_remaining: 0,
            counters,
        }
    }

    /// Injection counters so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.counters.snapshot()
    }

    /// A live handle onto the plan: swap it mid-run.
    pub fn plan_handle(&self) -> FaultPlanHandle {
        self.plan.clone()
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.random::<f64>() < p
    }

    /// Flips 1–4 payload bytes (or any bytes under `corrupt_header`).
    fn corrupt(&mut self, plan: &FaultPlan, frame: &mut [u8]) {
        let lo = if plan.corrupt_header || frame.len() <= HEADER_LEN {
            0
        } else {
            HEADER_LEN
        };
        if frame.len() <= lo {
            return;
        }
        let span = (frame.len() - lo) as u64;
        let flips = 1 + (self.rng.next_u64() % 4) as usize;
        for _ in 0..flips {
            let at = lo + (self.rng.next_u64() % span) as usize;
            let bit = 1u8 << (self.rng.next_u64() % 8);
            frame[at] ^= bit;
        }
    }

    /// Releases every held frame overtaken `window`+ times (or all).
    fn flush_held(&mut self, all: bool, window: usize) -> io::Result<()> {
        while let Some((_, overtaken)) = self.held.front() {
            if !all && *overtaken < window {
                break;
            }
            let (frame, _) = self.held.pop_front().expect("front checked");
            self.inner.send_frame(frame)?;
        }
        Ok(())
    }
}

impl<Tx: TransportTx> TransportTx for FaultyTx<Tx> {
    fn send_frame(&mut self, mut frame: Vec<u8>) -> io::Result<()> {
        let plan = self.plan.get();
        if self.chance(plan.stall) {
            self.counters.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(plan.stall_ms));
        }
        if self.chance(plan.drop) {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if self.chance(plan.corrupt) {
            self.counters.corrupted.fetch_add(1, Ordering::Relaxed);
            self.corrupt(&plan, &mut frame);
        }
        let duplicate = self.chance(plan.duplicate);
        if duplicate {
            self.counters.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        // Burst: open a cycle, withhold until it fills, release together.
        if self.burst_remaining == 0 && self.chance(plan.burst) {
            self.counters.bursts.fetch_add(1, Ordering::Relaxed);
            self.burst_remaining = plan.burst_len;
        }
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            self.held.push_back((frame, plan.reorder_window));
            if duplicate {
                if let Some((f, w)) = self.held.back().map(|(f, w)| (f.clone(), *w)) {
                    self.held.push_back((f, w));
                }
            }
            if self.burst_remaining == 0 {
                self.flush_held(true, plan.reorder_window)?;
            }
            return Ok(());
        }
        // Reorder: hold this frame (both copies, if duplicated); later
        // sends overtake it until its window expires.
        if self.chance(plan.reorder) {
            self.counters.reordered.fetch_add(1, Ordering::Relaxed);
            if duplicate {
                self.held.push_back((frame.clone(), 0));
            }
            self.held.push_back((frame, 0));
            return Ok(());
        }
        for (_, overtaken) in self.held.iter_mut() {
            *overtaken += 1;
        }
        self.inner.send_frame(frame.clone())?;
        if duplicate {
            self.inner.send_frame(frame)?;
        }
        self.flush_held(false, plan.reorder_window)
    }

    fn send_pooled(&mut self, frame: PooledBuf<u8>) -> io::Result<()> {
        // Fault decisions need an owned mutable frame; detach.
        self.send_frame(frame.into_vec())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.flush_held(true, 0)?;
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{in_proc_pair, recv_error_is_frame_scoped, TransportRx};
    use crate::wire::{Message, Teardown};

    fn teardown(id: u32) -> Message {
        Message::Teardown(Teardown { sensor_id: id })
    }

    fn recv_ids<Rx: TransportRx>(rx: &mut Rx) -> Vec<u32> {
        let mut out = Vec::new();
        loop {
            match rx.recv_msg() {
                Ok(Some(Message::Teardown(t))) => out.push(t.sensor_id),
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    assert!(
                        recv_error_is_frame_scoped(&e),
                        "chaos must never desync an in-proc stream: {e}"
                    );
                }
            }
        }
        out
    }

    #[test]
    fn a_none_plan_is_transparent() {
        let (a, b) = in_proc_pair(64);
        let faulty = FaultyTransport::new(a, FaultPlan::none(7));
        let counters = faulty.counters();
        let (mut tx, _arx) = faulty.split().unwrap();
        let (_btx, mut rx) = b.split().unwrap();
        for i in 0..20 {
            tx.send_msg(&teardown(i)).unwrap();
        }
        drop(tx);
        drop(_btx);
        assert_eq!(recv_ids(&mut rx), (0..20).collect::<Vec<_>>());
        assert_eq!(counters.snapshot(), FaultStats::default());
    }

    #[test]
    fn drops_are_seeded_and_reproducible() {
        let run = |seed: u64| -> (Vec<u32>, FaultStats) {
            let (a, b) = in_proc_pair(256);
            let faulty = FaultyTransport::new(a, FaultPlan::builder(seed).drop(0.3).build());
            let counters = faulty.counters();
            let (mut tx, _arx) = faulty.split().unwrap();
            let (_btx, mut rx) = b.split().unwrap();
            for i in 0..100 {
                tx.send_msg(&teardown(i)).unwrap();
            }
            drop(tx);
            drop(_btx);
            (recv_ids(&mut rx), counters.snapshot())
        };
        let (ids_a, stats_a) = run(42);
        let (ids_b, stats_b) = run(42);
        assert_eq!(ids_a, ids_b, "same seed, same fault sequence");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.dropped > 10 && stats_a.dropped < 60, "{stats_a:?}");
        assert_eq!(ids_a.len() as u64 + stats_a.dropped, 100);
        let (ids_c, _) = run(43);
        assert_ne!(ids_a, ids_c, "different seed, different faults");
    }

    #[test]
    fn duplicates_and_reorders_stay_within_window() {
        let (a, b) = in_proc_pair(512);
        let plan = FaultPlan::builder(5).duplicate(0.2).reorder(0.3, 4).build();
        let faulty = FaultyTransport::new(a, plan);
        let counters = faulty.counters();
        let (mut tx, _arx) = faulty.split().unwrap();
        let (_btx, mut rx) = b.split().unwrap();
        let n = 200u32;
        for i in 0..n {
            tx.send_msg(&teardown(i)).unwrap();
        }
        tx.finish().unwrap();
        drop(tx);
        drop(_btx);
        let ids = recv_ids(&mut rx);
        let stats = counters.snapshot();
        assert!(stats.duplicated > 0 && stats.reordered > 0, "{stats:?}");
        // Nothing lost: every id arrives at least once.
        let mut seen = vec![0u32; n as usize];
        for &id in &ids {
            seen[id as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c >= 1), "reorder/dup must not lose");
        assert_eq!(
            seen.iter().filter(|&&c| c > 1).count() as u64,
            stats.duplicated
        );
        // Bounded displacement: a frame may be overtaken by at most
        // window + in-flight duplicates.
        for (pos, &id) in ids.iter().enumerate() {
            assert!(
                (pos as i64 - id as i64).abs() <= 4 + stats.duplicated as i64,
                "id {id} displaced to {pos}"
            );
        }
    }

    #[test]
    fn corruption_is_frame_scoped_on_in_proc() {
        let (a, b) = in_proc_pair(256);
        // A Teardown payload is an arbitrary u32, so payload flips always
        // re-decode; flip header bytes too to actually break decodes.
        // In-proc frames are discrete, so even a mangled header is
        // frame-scoped there (TCP header corruption — a true desync — is
        // exercised in the integration tests).
        let plan = FaultPlan::builder(11)
            .corrupt(0.5)
            .corrupt_header(true)
            .build();
        let faulty = FaultyTransport::new(a, plan);
        let counters = faulty.counters();
        let (mut tx, _arx) = faulty.split().unwrap();
        let (_btx, mut rx) = b.split().unwrap();
        for i in 0..50 {
            tx.send_msg(&teardown(i)).unwrap();
        }
        drop(tx);
        drop(_btx);
        let mut ok = 0;
        let mut corrupt = 0;
        loop {
            match rx.recv_msg() {
                Ok(Some(_)) => ok += 1,
                Ok(None) => break,
                Err(e) => {
                    assert!(recv_error_is_frame_scoped(&e), "{e}");
                    corrupt += 1;
                }
            }
        }
        let stats = counters.snapshot();
        assert!(stats.corrupted > 5, "{stats:?}");
        // Some flips may land on don't-care bytes and still decode;
        // every *failed* decode must be frame-scoped (asserted above),
        // and nothing may vanish.
        assert_eq!(ok + corrupt, 50);
        assert!(corrupt > 0, "half the frames corrupted, none failed");
    }

    #[test]
    fn swapping_the_plan_phases_faults_on_and_off() {
        let (a, b) = in_proc_pair(256);
        let faulty = FaultyTransport::new(a, FaultPlan::none(9));
        let counters = faulty.counters();
        let plan = faulty.plan_handle();
        let (mut tx, _arx) = faulty.split().unwrap();
        let (_btx, mut rx) = b.split().unwrap();
        for i in 0..20 {
            tx.send_msg(&teardown(i)).unwrap();
        }
        plan.set(FaultPlan::builder(9).drop(1.0).build()); // fault window opens
        for i in 20..40 {
            tx.send_msg(&teardown(i)).unwrap();
        }
        plan.set(FaultPlan::none(9)); // recovery
        for i in 40..60 {
            tx.send_msg(&teardown(i)).unwrap();
        }
        drop(tx);
        drop(_btx);
        let ids = recv_ids(&mut rx);
        let expected: Vec<u32> = (0..20).chain(40..60).collect();
        assert_eq!(ids, expected, "only the fault window's frames vanish");
        assert_eq!(counters.snapshot().dropped, 20);
    }

    #[test]
    fn bursts_release_everything_they_held() {
        let (a, b) = in_proc_pair(512);
        let faulty = FaultyTransport::new(a, FaultPlan::builder(3).burst(0.1, 8).build());
        let counters = faulty.counters();
        let (mut tx, _arx) = faulty.split().unwrap();
        let (_btx, mut rx) = b.split().unwrap();
        for i in 0..100 {
            tx.send_msg(&teardown(i)).unwrap();
        }
        tx.finish().unwrap();
        drop(tx);
        drop(_btx);
        let ids = recv_ids(&mut rx);
        assert!(counters.snapshot().bursts > 0);
        assert_eq!(ids.len(), 100, "a burst delays, never loses");
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
