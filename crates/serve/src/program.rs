//! Programmable subscription filters: a compiled predicate DSL the world
//! hub evaluates *before* encode/fan-out.
//!
//! A [`FilterProgram`] is a flat, postfix op array — event-kind, zone,
//! track matchers plus `and`/`or`/`not` combinators and three stateful
//! post-filters (debounce, token-bucket rate limit, sustained-occupancy
//! threshold). Programs travel inside `SubscribeV3` frames, are
//! validated once at subscription time ([`FilterProgram::compile`]), and
//! thereafter cost a handful of stack-machine ops per offered event.
//! Matching subscribers share one pooled encode; non-matchers never see
//! the encoder at all.
//!
//! Every stateful op keys its timing off the **event clock**
//! ([`EventCtx::time_s`], the fused epoch time), not the wall clock —
//! filters are deterministic functions of the event stream, replayable
//! in tests with a fake clock.
//!
//! Compilation also derives a conservative event-kind bitmask
//! ([`CompiledProgram::kind_mask`]) by abstract interpretation over the
//! op array: the hub ORs these into a per-room coarse index and skips
//! whole events (and, per subscription, whole program runs) whose kind
//! no subscriber could possibly match — the Bloom-filter-style pre-screen
//! that keeps the common case at O(candidate subscriptions), not
//! O(all subscriptions).

use std::ops::BitOr;
use std::sync::atomic::{AtomicU64, Ordering};
use witrack_fuse::WorldEvent;

/// Hard cap on ops per program: anything larger is hostile or broken,
/// not a real filter.
pub const MAX_PROGRAM_OPS: usize = 64;

/// Bitmask covering every wire event kind (1..=8).
pub const ALL_KINDS_MASK: u16 = 0xFF;

/// Kinds that carry a zone id (`ZoneEq` can only be true for these).
const ZONE_KINDS_MASK: u16 = EventKind::ZoneEntered.mask()
    | EventKind::ZoneExited.mask()
    | EventKind::OccupancyChanged.mask();

/// Kinds that can carry a track id (`TrackEq` can only be true for these).
const TRACK_KINDS_MASK: u16 = ALL_KINDS_MASK & !EventKind::OccupancyChanged.mask();

/// One fleet-event kind, mirroring the wire `Event` kind codes (1..=8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A world track reached confirmed status.
    TrackBorn,
    /// A confirmed world track was dropped.
    TrackLost,
    /// A fused track satisfied the fall rule.
    Fall,
    /// A track entered a configured zone.
    ZoneEntered,
    /// A track left a configured zone.
    ZoneExited,
    /// A zone's occupant count changed.
    OccupancyChanged,
    /// A track's anchoring sensor changed.
    Handoff,
    /// A pointing gesture.
    Pointing,
}

impl EventKind {
    /// The wire kind code (1..=8), as carried in `Event` frames.
    pub const fn wire_kind(self) -> u16 {
        match self {
            EventKind::TrackBorn => 1,
            EventKind::TrackLost => 2,
            EventKind::Fall => 3,
            EventKind::ZoneEntered => 4,
            EventKind::ZoneExited => 5,
            EventKind::OccupancyChanged => 6,
            EventKind::Handoff => 7,
            EventKind::Pointing => 8,
        }
    }

    /// This kind's bit in an [`EventKinds`] mask.
    pub const fn mask(self) -> u16 {
        1 << (self.wire_kind() - 1)
    }
}

/// A set of [`EventKind`]s as a bitmask — build one with `|`:
/// `EventKind::Fall | EventKind::Handoff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKinds(pub u16);

impl EventKinds {
    /// Every kind.
    pub const fn all() -> EventKinds {
        EventKinds(ALL_KINDS_MASK)
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: EventKind) -> bool {
        self.0 & kind.mask() != 0
    }
}

impl From<EventKind> for EventKinds {
    fn from(k: EventKind) -> EventKinds {
        EventKinds(k.mask())
    }
}

impl BitOr for EventKind {
    type Output = EventKinds;
    fn bitor(self, rhs: EventKind) -> EventKinds {
        EventKinds(self.mask() | rhs.mask())
    }
}

impl BitOr<EventKind> for EventKinds {
    type Output = EventKinds;
    fn bitor(self, rhs: EventKind) -> EventKinds {
        EventKinds(self.0 | rhs.mask())
    }
}

impl BitOr for EventKinds {
    type Output = EventKinds;
    fn bitor(self, rhs: EventKinds) -> EventKinds {
        EventKinds(self.0 | rhs.0)
    }
}

/// One filter-program op. Programs are **postfix**: matchers push a
/// boolean, combinators pop and push, and a valid program leaves exactly
/// one boolean on the stack (the match verdict). An empty program
/// matches everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push `true` when the event's kind bit intersects the mask.
    KindMask(u16),
    /// Push `true` when the event names this zone.
    ZoneEq(u32),
    /// Push `true` when the event names this world track.
    TrackEq(u64),
    /// Pop two, push their conjunction.
    And,
    /// Pop two, push their disjunction.
    Or,
    /// Pop one, push its negation.
    Not,
    /// Pop one; a `true` within `min_interval_s` of the last `true` this
    /// op let through is suppressed (pushed back as `false`). Event-clock
    /// driven.
    Debounce {
        /// Minimum event-time spacing (s) between delivered `true`s.
        min_interval_s: f64,
    },
    /// Pop one; `true`s spend a token from a bucket refilled at `per_s`
    /// tokens per event-second up to `burst`. An empty bucket suppresses
    /// (pushes `false` and flags the evaluation rate-limited).
    RateLimit {
        /// Sustained deliveries per event-second.
        per_s: f64,
        /// Bucket capacity: deliveries allowed back to back.
        burst: u32,
    },
    /// Push `true` when the event is an `OccupancyChanged` whose zone has
    /// held a count strictly above `count` for at least `hold_s` of event
    /// time — "alert only if occupancy > N for T seconds". State is
    /// per zone; a count at or below `count` resets that zone's clock.
    OccupancyAbove {
        /// Occupancy threshold (strictly above).
        count: u32,
        /// Sustain window (s) before the first match.
        hold_s: f64,
    },
}

/// Wire op codes (`Op` ↔ the 17-byte wire record).
const OP_KIND_MASK: u8 = 1;
const OP_ZONE_EQ: u8 = 2;
const OP_TRACK_EQ: u8 = 3;
const OP_AND: u8 = 4;
const OP_OR: u8 = 5;
const OP_NOT: u8 = 6;
const OP_DEBOUNCE: u8 = 7;
const OP_RATE_LIMIT: u8 = 8;
const OP_OCCUPANCY_ABOVE: u8 = 9;

impl Op {
    /// This op as its wire record `(code, a, b, f)`.
    pub(crate) fn to_wire(self) -> (u8, u32, u32, f64) {
        match self {
            Op::KindMask(m) => (OP_KIND_MASK, m as u32, 0, 0.0),
            Op::ZoneEq(z) => (OP_ZONE_EQ, z, 0, 0.0),
            Op::TrackEq(t) => (OP_TRACK_EQ, t as u32, (t >> 32) as u32, 0.0),
            Op::And => (OP_AND, 0, 0, 0.0),
            Op::Or => (OP_OR, 0, 0, 0.0),
            Op::Not => (OP_NOT, 0, 0, 0.0),
            Op::Debounce { min_interval_s } => (OP_DEBOUNCE, 0, 0, min_interval_s),
            Op::RateLimit { per_s, burst } => (OP_RATE_LIMIT, burst, 0, per_s),
            Op::OccupancyAbove { count, hold_s } => (OP_OCCUPANCY_ABOVE, count, 0, hold_s),
        }
    }

    /// Decodes one wire record. Structural validation only (codes and
    /// finiteness); stack discipline is checked at
    /// [`FilterProgram::compile`].
    pub(crate) fn from_wire(code: u8, a: u32, b: u32, f: f64) -> Result<Op, &'static str> {
        let finite_nonneg = |v: f64| -> Result<f64, &'static str> {
            if v.is_finite() && v >= 0.0 {
                Ok(v)
            } else {
                Err("non-finite or negative filter parameter")
            }
        };
        Ok(match code {
            OP_KIND_MASK => {
                if a > ALL_KINDS_MASK as u32 {
                    return Err("kind mask names unknown event kinds");
                }
                Op::KindMask(a as u16)
            }
            OP_ZONE_EQ => Op::ZoneEq(a),
            OP_TRACK_EQ => Op::TrackEq((a as u64) | ((b as u64) << 32)),
            OP_AND => Op::And,
            OP_OR => Op::Or,
            OP_NOT => Op::Not,
            OP_DEBOUNCE => Op::Debounce {
                min_interval_s: finite_nonneg(f)?,
            },
            OP_RATE_LIMIT => Op::RateLimit {
                per_s: finite_nonneg(f)?,
                burst: a,
            },
            OP_OCCUPANCY_ABOVE => Op::OccupancyAbove {
                count: a,
                hold_s: finite_nonneg(f)?,
            },
            _ => return Err("unknown filter op"),
        })
    }
}

/// A filter program as it travels the wire: a flat postfix op array.
/// Decoded programs are *structurally* sound (known ops, finite
/// parameters) but not yet validated — the hub compiles them
/// ([`FilterProgram::compile`]) and rejects stack-invalid programs with
/// `RejectCode::BadProgram`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FilterProgram {
    /// Postfix ops, at most [`MAX_PROGRAM_OPS`]. Empty = match all.
    pub ops: Vec<Op>,
}

/// Why a structurally-decodable program failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// More than [`MAX_PROGRAM_OPS`] ops.
    TooManyOps,
    /// A combinator popped from an empty stack.
    StackUnderflow,
    /// Evaluation would not leave exactly one value on the stack.
    UnbalancedStack,
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::TooManyOps => write!(f, "program exceeds {MAX_PROGRAM_OPS} ops"),
            ProgramError::StackUnderflow => write!(f, "combinator pops an empty stack"),
            ProgramError::UnbalancedStack => {
                write!(f, "program does not leave exactly one verdict")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl FilterProgram {
    /// Validates the program (op budget, stack discipline) and derives
    /// its conservative kind mask. The returned [`CompiledProgram`] is
    /// what the hub evaluates per event.
    pub fn compile(&self) -> Result<CompiledProgram, ProgramError> {
        if self.ops.len() > MAX_PROGRAM_OPS {
            return Err(ProgramError::TooManyOps);
        }
        if self.ops.is_empty() {
            return Ok(CompiledProgram {
                ops: Vec::new(),
                kind_mask: ALL_KINDS_MASK,
                max_stack: 0,
            });
        }
        // Abstract interpretation: run the stack machine over kind masks
        // instead of booleans. A matcher's mask is the set of kinds it
        // could possibly be true for; And intersects, Or unions, Not is
        // conservatively "any kind" (¬x is true wherever x is false,
        // which can be every kind). Stateful post-filters only ever turn
        // true into false, so they pass their input mask through.
        let mut stack: Vec<u16> = Vec::with_capacity(self.ops.len());
        let mut max_stack = 0usize;
        for op in &self.ops {
            match op {
                Op::KindMask(m) => stack.push(*m),
                Op::ZoneEq(_) => stack.push(ZONE_KINDS_MASK),
                Op::TrackEq(_) => stack.push(TRACK_KINDS_MASK),
                Op::OccupancyAbove { .. } => stack.push(EventKind::OccupancyChanged.mask()),
                Op::And => {
                    let b = stack.pop().ok_or(ProgramError::StackUnderflow)?;
                    let a = stack.pop().ok_or(ProgramError::StackUnderflow)?;
                    stack.push(a & b);
                }
                Op::Or => {
                    let b = stack.pop().ok_or(ProgramError::StackUnderflow)?;
                    let a = stack.pop().ok_or(ProgramError::StackUnderflow)?;
                    stack.push(a | b);
                }
                Op::Not => {
                    stack.pop().ok_or(ProgramError::StackUnderflow)?;
                    stack.push(ALL_KINDS_MASK);
                }
                Op::Debounce { .. } | Op::RateLimit { .. } => {
                    let m = stack.pop().ok_or(ProgramError::StackUnderflow)?;
                    stack.push(m);
                }
            }
            max_stack = max_stack.max(stack.len());
        }
        if stack.len() != 1 {
            return Err(ProgramError::UnbalancedStack);
        }
        Ok(CompiledProgram {
            ops: self.ops.clone(),
            kind_mask: stack[0],
            max_stack,
        })
    }
}

/// A validated program plus its derived coarse index, ready for per-event
/// evaluation. Obtain via [`FilterProgram::compile`].
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    ops: Vec<Op>,
    kind_mask: u16,
    max_stack: usize,
}

/// Per-op mutable state for one subscription (debounce clocks, token
/// buckets, occupancy sustain windows). One slot per op, index-aligned
/// with the compiled op array.
#[derive(Debug, Clone, Default)]
pub struct ProgramState {
    slots: Vec<OpState>,
    /// Reused boolean evaluation stack.
    stack: Vec<bool>,
}

#[derive(Debug, Clone)]
enum OpState {
    None,
    Debounce {
        last_fire_s: Option<f64>,
    },
    RateLimit {
        tokens: f64,
        last_s: Option<f64>,
    },
    /// `(zone, above-since event time)` pairs; zones per room are few.
    Occupancy {
        above_since: Vec<(u32, f64)>,
    },
}

/// What one program evaluation concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalResult {
    /// The event passed the filter: deliver it.
    pub matched: bool,
    /// A debounce/rate-limit op suppressed a would-be match this
    /// evaluation (counted separately from plain non-matches).
    pub rate_limited: bool,
}

/// The per-event facts programs match on, extracted once per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventCtx {
    /// Wire kind code (1..=8).
    pub kind: u16,
    /// The zone the event names, if any.
    pub zone: Option<u32>,
    /// The world track the event names, if any.
    pub track: Option<u64>,
    /// `OccupancyChanged` count (0 otherwise).
    pub count: u32,
    /// Event (epoch) time — the clock every stateful op runs on.
    pub time_s: f64,
}

impl EventCtx {
    /// Extracts the matchable facts from a fleet event.
    pub fn from_event(event: &WorldEvent) -> EventCtx {
        let (kind, zone, track, count) = match *event {
            WorldEvent::TrackBorn { track, .. } => (1, None, Some(track.0), 0),
            WorldEvent::TrackLost { track, .. } => (2, None, Some(track.0), 0),
            WorldEvent::Fall { track, .. } => (3, None, Some(track.0), 0),
            WorldEvent::ZoneEntered { track, zone, .. } => (4, Some(zone), Some(track.0), 0),
            WorldEvent::ZoneExited { track, zone, .. } => (5, Some(zone), Some(track.0), 0),
            WorldEvent::OccupancyChanged { zone, count, .. } => (6, Some(zone), None, count),
            WorldEvent::Handoff { track, .. } => (7, None, Some(track.0), 0),
            WorldEvent::Pointing { track, .. } => (8, None, track.map(|t| t.0), 0),
        };
        EventCtx {
            kind,
            zone,
            track,
            count,
            time_s: event.time_s(),
        }
    }

    /// This event's bit in a kind mask.
    pub fn kind_bit(&self) -> u16 {
        1 << (self.kind - 1)
    }
}

impl CompiledProgram {
    /// The conservative set of event kinds this program can match —
    /// an event outside the mask need not be evaluated at all.
    pub fn kind_mask(&self) -> u16 {
        self.kind_mask
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether this is the match-all (empty) program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// A fresh state bundle for one subscription running this program.
    pub fn new_state(&self) -> ProgramState {
        ProgramState {
            slots: self
                .ops
                .iter()
                .map(|op| match op {
                    Op::Debounce { .. } => OpState::Debounce { last_fire_s: None },
                    Op::RateLimit { burst, .. } => OpState::RateLimit {
                        tokens: *burst as f64,
                        last_s: None,
                    },
                    Op::OccupancyAbove { .. } => OpState::Occupancy {
                        above_since: Vec::new(),
                    },
                    _ => OpState::None,
                })
                .collect(),
            stack: Vec::with_capacity(self.max_stack),
        }
    }

    /// Evaluates the program against one event, advancing `state`'s
    /// clocks and buckets. `state` must come from [`Self::new_state`] on
    /// this same program.
    pub fn eval(&self, state: &mut ProgramState, ctx: &EventCtx) -> EvalResult {
        if self.ops.is_empty() {
            return EvalResult {
                matched: true,
                rate_limited: false,
            };
        }
        let stack = &mut state.stack;
        stack.clear();
        let mut rate_limited = false;
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::KindMask(m) => stack.push(m & ctx.kind_bit() != 0),
                Op::ZoneEq(z) => stack.push(ctx.zone == Some(*z)),
                Op::TrackEq(t) => stack.push(ctx.track == Some(*t)),
                Op::And => {
                    let b = stack.pop().expect("compile checked arity");
                    let a = stack.pop().expect("compile checked arity");
                    stack.push(a && b);
                }
                Op::Or => {
                    let b = stack.pop().expect("compile checked arity");
                    let a = stack.pop().expect("compile checked arity");
                    stack.push(a || b);
                }
                Op::Not => {
                    let a = stack.pop().expect("compile checked arity");
                    stack.push(!a);
                }
                Op::Debounce { min_interval_s } => {
                    let a = stack.pop().expect("compile checked arity");
                    let OpState::Debounce { last_fire_s } = &mut state.slots[i] else {
                        unreachable!("state slots are op-aligned");
                    };
                    let pass = a
                        && match *last_fire_s {
                            Some(last) => ctx.time_s - last >= *min_interval_s,
                            None => true,
                        };
                    if pass {
                        *last_fire_s = Some(ctx.time_s);
                    } else if a {
                        rate_limited = true;
                    }
                    stack.push(pass);
                }
                Op::RateLimit { per_s, burst } => {
                    let a = stack.pop().expect("compile checked arity");
                    let OpState::RateLimit { tokens, last_s } = &mut state.slots[i] else {
                        unreachable!("state slots are op-aligned");
                    };
                    let mut pass = false;
                    if a {
                        if let Some(last) = *last_s {
                            let dt = (ctx.time_s - last).max(0.0);
                            *tokens = (*tokens + dt * per_s).min(*burst as f64);
                        }
                        *last_s = Some(ctx.time_s);
                        if *tokens >= 1.0 {
                            *tokens -= 1.0;
                            pass = true;
                        } else {
                            rate_limited = true;
                        }
                    }
                    stack.push(pass);
                }
                Op::OccupancyAbove { count, hold_s } => {
                    let OpState::Occupancy { above_since } = &mut state.slots[i] else {
                        unreachable!("state slots are op-aligned");
                    };
                    let mut pass = false;
                    if ctx.kind == EventKind::OccupancyChanged.wire_kind() {
                        let zone = ctx.zone.unwrap_or(0);
                        if ctx.count > *count {
                            let since = match above_since.iter().find(|(z, _)| *z == zone) {
                                Some(&(_, s)) => s,
                                None => {
                                    above_since.push((zone, ctx.time_s));
                                    ctx.time_s
                                }
                            };
                            pass = ctx.time_s - since >= *hold_s;
                        } else {
                            above_since.retain(|(z, _)| *z != zone);
                        }
                    }
                    stack.push(pass);
                }
            }
        }
        EvalResult {
            matched: stack.pop().expect("compile checked balance"),
            rate_limited,
        }
    }
}

/// Process-local source of unique default subscription ids.
static NEXT_SUB_ID: AtomicU64 = AtomicU64::new(1);

/// Fluent builder for a room subscription: pick a room, narrow the
/// event stream, bolt on rate control, and [`build`](Self::build) the
/// [`SubscribeV3`](crate::wire::SubscribeV3) to send.
///
/// ```
/// use witrack_serve::program::{EventKind, SubscriptionBuilder};
///
/// let sub = SubscriptionBuilder::room(3)
///     .events(EventKind::Fall | EventKind::Handoff)
///     .rate_limit(2.0, 5)
///     .build();
/// assert_eq!(sub.room_id, 3);
/// assert!(sub.program.compile().is_ok());
/// ```
///
/// Matchers compose as: `kinds AND (zone₁ OR zone₂ …) AND (track₁ OR …)
/// [OR occupancy-threshold]`, with debounce/rate-limit applied last, in
/// call order.
#[derive(Debug, Clone)]
pub struct SubscriptionBuilder {
    room_id: u32,
    sub_id: Option<u64>,
    world_updates: bool,
    events: bool,
    max_update_hz: f64,
    kinds: Option<EventKinds>,
    zones: Vec<u32>,
    tracks: Vec<u64>,
    occupancy: Option<(u32, f64)>,
    post: Vec<Op>,
}

impl SubscriptionBuilder {
    /// Starts a subscription to `room_id`. Defaults: world updates and
    /// (all) events on, no rate cap.
    pub fn room(room_id: u32) -> SubscriptionBuilder {
        SubscriptionBuilder {
            room_id,
            sub_id: None,
            world_updates: true,
            events: true,
            max_update_hz: 0.0,
            kinds: None,
            zones: Vec::new(),
            tracks: Vec::new(),
            occupancy: None,
            post: Vec::new(),
        }
    }

    /// Restricts delivered events to these kinds (implies events on).
    pub fn events(mut self, kinds: impl Into<EventKinds>) -> Self {
        self.kinds = Some(kinds.into());
        self.events = true;
        self
    }

    /// Disables the event stream entirely (world updates only).
    pub fn no_events(mut self) -> Self {
        self.events = false;
        self
    }

    /// Also require the event to name this zone (multiple calls OR).
    pub fn zone(mut self, zone_id: u32) -> Self {
        self.zones.push(zone_id);
        self
    }

    /// Also require the event to name this world track (multiple calls
    /// OR).
    pub fn track(mut self, track_id: u64) -> Self {
        self.tracks.push(track_id);
        self
    }

    /// Additionally match sustained occupancy: `OccupancyChanged` events
    /// whose zone has held strictly more than `count` occupants for at
    /// least `hold_s` seconds of event time.
    pub fn occupancy_above(mut self, count: u32, hold_s: f64) -> Self {
        self.occupancy = Some((count, hold_s));
        self
    }

    /// Suppress matches within `min_interval_s` of the previous delivery.
    pub fn debounce(mut self, min_interval_s: f64) -> Self {
        self.post.push(Op::Debounce { min_interval_s });
        self
    }

    /// Token-bucket rate limit: `per_s` sustained deliveries per
    /// event-second, `burst` back to back.
    pub fn rate_limit(mut self, per_s: f64, burst: u32) -> Self {
        self.post.push(Op::RateLimit { per_s, burst });
        self
    }

    /// Whether fused `WorldUpdate` frames are delivered (default on).
    pub fn world_updates(mut self, on: bool) -> Self {
        self.world_updates = on;
        self
    }

    /// Caps delivered world updates at `hz` per event-second (0 = every
    /// fused frame). Updates beyond the cap are skipped, not queued.
    pub fn max_update_hz(mut self, hz: f64) -> Self {
        self.max_update_hz = hz.max(0.0);
        self
    }

    /// Pins the subscription id (for [`unsubscribe`] bookkeeping). When
    /// not set, a process-unique id is assigned at build.
    ///
    /// [`unsubscribe`]: crate::client::SensorClient::unsubscribe
    pub fn id(mut self, sub_id: u64) -> Self {
        self.sub_id = Some(sub_id);
        self
    }

    /// The postfix program this builder compiles to (also used by
    /// [`Self::build`]).
    pub fn program(&self) -> FilterProgram {
        let mut ops = Vec::new();
        let mut have_matcher = false;
        let push_and = |ops: &mut Vec<Op>, have: &mut bool| {
            if *have {
                ops.push(Op::And);
            }
            *have = true;
        };
        if let Some(kinds) = self.kinds {
            ops.push(Op::KindMask(kinds.0));
            push_and(&mut ops, &mut have_matcher);
        }
        if !self.zones.is_empty() {
            for (i, z) in self.zones.iter().enumerate() {
                ops.push(Op::ZoneEq(*z));
                if i > 0 {
                    ops.push(Op::Or);
                }
            }
            push_and(&mut ops, &mut have_matcher);
        }
        if !self.tracks.is_empty() {
            for (i, t) in self.tracks.iter().enumerate() {
                ops.push(Op::TrackEq(*t));
                if i > 0 {
                    ops.push(Op::Or);
                }
            }
            push_and(&mut ops, &mut have_matcher);
        }
        if let Some((count, hold_s)) = self.occupancy {
            ops.push(Op::OccupancyAbove { count, hold_s });
            // Occupancy alerts are an *additional* reason to deliver:
            // OR'd so `.events(Fall).occupancy_above(..)` means falls or
            // sustained crowding, matching how alerts read.
            if have_matcher {
                ops.push(Op::Or);
            }
            have_matcher = true;
        }
        let _ = have_matcher;
        ops.extend(self.post.iter().copied());
        FilterProgram { ops }
    }

    /// Builds the subscription message.
    pub fn build(&self) -> crate::wire::SubscribeV3 {
        crate::wire::SubscribeV3 {
            room_id: self.room_id,
            sub_id: self
                .sub_id
                .unwrap_or_else(|| NEXT_SUB_ID.fetch_add(1, Ordering::Relaxed)),
            world_updates: self.world_updates,
            events: self.events,
            max_update_hz: self.max_update_hz,
            program: self.program(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(kind: EventKind, time_s: f64) -> EventCtx {
        EventCtx {
            kind: kind.wire_kind(),
            zone: None,
            track: Some(1),
            count: 0,
            time_s,
        }
    }

    fn occ(zone: u32, count: u32, time_s: f64) -> EventCtx {
        EventCtx {
            kind: EventKind::OccupancyChanged.wire_kind(),
            zone: Some(zone),
            track: None,
            count,
            time_s,
        }
    }

    #[test]
    fn empty_program_matches_everything() {
        let p = FilterProgram::default().compile().unwrap();
        assert_eq!(p.kind_mask(), ALL_KINDS_MASK);
        let mut s = p.new_state();
        assert!(p.eval(&mut s, &ctx(EventKind::Fall, 0.0)).matched);
    }

    #[test]
    fn stack_discipline_is_enforced() {
        let underflow = FilterProgram { ops: vec![Op::And] };
        assert_eq!(
            underflow.compile().unwrap_err(),
            ProgramError::StackUnderflow
        );
        let unbalanced = FilterProgram {
            ops: vec![Op::ZoneEq(1), Op::ZoneEq(2)],
        };
        assert_eq!(
            unbalanced.compile().unwrap_err(),
            ProgramError::UnbalancedStack
        );
        let too_many = FilterProgram {
            ops: vec![Op::Not; MAX_PROGRAM_OPS + 1],
        };
        assert_eq!(too_many.compile().unwrap_err(), ProgramError::TooManyOps);
    }

    #[test]
    fn kind_mask_narrows_through_and_and_widens_through_not() {
        let falls = FilterProgram {
            ops: vec![Op::KindMask(EventKind::Fall.mask())],
        }
        .compile()
        .unwrap();
        assert_eq!(falls.kind_mask(), EventKind::Fall.mask());
        // zone AND fall is impossible (falls carry no zone): empty mask.
        let contradiction = FilterProgram {
            ops: vec![Op::KindMask(EventKind::Fall.mask()), Op::ZoneEq(1), Op::And],
        }
        .compile()
        .unwrap();
        assert_eq!(contradiction.kind_mask(), 0);
        let negated = FilterProgram {
            ops: vec![Op::KindMask(EventKind::Fall.mask()), Op::Not],
        }
        .compile()
        .unwrap();
        assert_eq!(negated.kind_mask(), ALL_KINDS_MASK);
    }

    #[test]
    fn debounce_runs_on_the_event_clock() {
        let p = FilterProgram {
            ops: vec![
                Op::KindMask(EventKind::Fall.mask()),
                Op::Debounce {
                    min_interval_s: 1.0,
                },
            ],
        }
        .compile()
        .unwrap();
        let mut s = p.new_state();
        assert!(p.eval(&mut s, &ctx(EventKind::Fall, 10.0)).matched);
        let again = p.eval(&mut s, &ctx(EventKind::Fall, 10.5));
        assert!(!again.matched && again.rate_limited, "{again:?}");
        // A non-matching event is not a rate-limit suppression.
        let other = p.eval(&mut s, &ctx(EventKind::Handoff, 10.6));
        assert!(!other.matched && !other.rate_limited);
        assert!(p.eval(&mut s, &ctx(EventKind::Fall, 11.5)).matched);
    }

    #[test]
    fn rate_limit_is_a_token_bucket() {
        let p = FilterProgram {
            ops: vec![
                Op::KindMask(ALL_KINDS_MASK),
                Op::RateLimit {
                    per_s: 1.0,
                    burst: 2,
                },
            ],
        }
        .compile()
        .unwrap();
        let mut s = p.new_state();
        // Burst of 2 passes back to back; the third is shed.
        assert!(p.eval(&mut s, &ctx(EventKind::Fall, 0.0)).matched);
        assert!(p.eval(&mut s, &ctx(EventKind::Fall, 0.0)).matched);
        let shed = p.eval(&mut s, &ctx(EventKind::Fall, 0.0));
        assert!(!shed.matched && shed.rate_limited);
        // One event-second refills one token.
        assert!(p.eval(&mut s, &ctx(EventKind::Fall, 1.0)).matched);
        assert!(!p.eval(&mut s, &ctx(EventKind::Fall, 1.1)).matched);
    }

    #[test]
    fn occupancy_threshold_requires_sustain_and_resets_on_drop() {
        let p = FilterProgram {
            ops: vec![Op::OccupancyAbove {
                count: 2,
                hold_s: 5.0,
            }],
        }
        .compile()
        .unwrap();
        assert_eq!(p.kind_mask(), EventKind::OccupancyChanged.mask());
        let mut s = p.new_state();
        assert!(
            !p.eval(&mut s, &occ(7, 3, 0.0)).matched,
            "not sustained yet"
        );
        assert!(!p.eval(&mut s, &occ(7, 4, 3.0)).matched);
        assert!(p.eval(&mut s, &occ(7, 3, 5.0)).matched, "held 5 s above 2");
        // A dip resets the clock.
        assert!(!p.eval(&mut s, &occ(7, 2, 6.0)).matched);
        assert!(!p.eval(&mut s, &occ(7, 3, 7.0)).matched);
        assert!(
            !p.eval(&mut s, &occ(7, 3, 11.0)).matched,
            "only 4 s since dip"
        );
        assert!(p.eval(&mut s, &occ(7, 3, 12.0)).matched);
        // Other zones keep independent clocks.
        assert!(!p.eval(&mut s, &occ(8, 9, 12.0)).matched);
    }

    #[test]
    fn builder_composes_matchers_and_post_filters() {
        let sub = SubscriptionBuilder::room(4)
            .events(EventKind::ZoneEntered | EventKind::ZoneExited)
            .zone(11)
            .zone(12)
            .debounce(0.5)
            .world_updates(false)
            .build();
        assert_eq!(sub.room_id, 4);
        assert!(!sub.world_updates && sub.events);
        let p = sub.program.compile().unwrap();
        assert_eq!(
            p.kind_mask(),
            EventKind::ZoneEntered.mask() | EventKind::ZoneExited.mask()
        );
        let mut s = p.new_state();
        let enter = EventCtx {
            kind: EventKind::ZoneEntered.wire_kind(),
            zone: Some(12),
            track: Some(5),
            count: 0,
            time_s: 1.0,
        };
        assert!(p.eval(&mut s, &enter).matched);
        let wrong_zone = EventCtx {
            zone: Some(13),
            time_s: 2.0,
            ..enter
        };
        assert!(!p.eval(&mut s, &wrong_zone).matched);
    }

    #[test]
    fn builder_ids_are_unique_unless_pinned() {
        let a = SubscriptionBuilder::room(0).build();
        let b = SubscriptionBuilder::room(0).build();
        assert_ne!(a.sub_id, b.sub_id);
        assert_eq!(SubscriptionBuilder::room(0).id(77).build().sub_id, 77);
    }

    #[test]
    fn wire_records_round_trip() {
        let ops = vec![
            Op::KindMask(0b101),
            Op::ZoneEq(9),
            Op::TrackEq(u64::MAX - 3),
            Op::And,
            Op::Or,
            Op::Not,
            Op::Debounce {
                min_interval_s: 0.25,
            },
            Op::RateLimit {
                per_s: 2.0,
                burst: 7,
            },
            Op::OccupancyAbove {
                count: 3,
                hold_s: 10.0,
            },
        ];
        for op in ops {
            let (c, a, b, f) = op.to_wire();
            assert_eq!(Op::from_wire(c, a, b, f).unwrap(), op);
        }
        assert!(Op::from_wire(0, 0, 0, 0.0).is_err());
        assert!(Op::from_wire(200, 0, 0, 0.0).is_err());
        assert!(Op::from_wire(OP_DEBOUNCE, 0, 0, f64::NAN).is_err());
        assert!(Op::from_wire(OP_RATE_LIMIT, 1, 0, -1.0).is_err());
        assert!(Op::from_wire(OP_KIND_MASK, 0x1FF, 0, 0.0).is_err());
    }
}
