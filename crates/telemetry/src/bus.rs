//! The event bus: a lazy, zero-cost-when-disabled sink for [`TimedEvent`]s.
//!
//! [`EventBus::emit`] takes a *closure* producing the event, not the event
//! itself. With [`Collector::Null`] installed the closure is never invoked,
//! so a disabled bus performs no allocation and no formatting on the hot
//! path — the only cost is one enum-discriminant branch. The
//! [`Collector::Counting`] variant constructs and immediately drops events,
//! which lets tests assert exactly how many events a code path would record.

use symphony_sim::SimTime;

use crate::event::{EventKind, TimedEvent};
use crate::metrics::Counter;

/// Where emitted events go.
#[derive(Debug)]
pub enum Collector {
    /// Telemetry disabled: `emit` closures are never invoked.
    Null,
    /// Record events in memory for export.
    Memory(Vec<TimedEvent>),
    /// Construct events, count them, drop them (test probe).
    Counting(u64),
}

/// A single-owner event sink stamped on the virtual clock.
#[derive(Debug)]
pub struct EventBus {
    collector: Collector,
    /// Events constructed so far (0 while disabled — the proof that the
    /// disabled hot path does no event work).
    constructed: u64,
    /// Hard cap on `Memory` retention: once the buffer holds this many
    /// events, further emissions are counted as dropped instead of stored,
    /// so tracing an unbounded sweep cannot grow memory without bound.
    /// `None` (the default) keeps everything.
    capacity: Option<usize>,
    /// Events discarded by the capacity cap.
    dropped: u64,
    /// Optional registry hook bumped once per dropped event
    /// (`telemetry.events_dropped` when installed by the kernel).
    drop_counter: Option<Counter>,
}

impl EventBus {
    /// A disabled bus: `emit` is a branch and nothing else.
    pub fn disabled() -> Self {
        EventBus {
            collector: Collector::Null,
            constructed: 0,
            capacity: None,
            dropped: 0,
            drop_counter: None,
        }
    }

    /// A recording bus backed by an in-memory vector.
    pub fn recording() -> Self {
        EventBus {
            collector: Collector::Memory(Vec::new()),
            constructed: 0,
            capacity: None,
            dropped: 0,
            drop_counter: None,
        }
    }

    /// A counting bus: events are constructed and dropped.
    pub fn counting() -> Self {
        EventBus {
            collector: Collector::Counting(0),
            constructed: 0,
            capacity: None,
            dropped: 0,
            drop_counter: None,
        }
    }

    /// Replaces the collector, returning the old one.
    pub fn set_collector(&mut self, collector: Collector) -> Collector {
        std::mem::replace(&mut self.collector, collector)
    }

    /// `true` unless the collector is [`Collector::Null`].
    pub fn is_enabled(&self) -> bool {
        !matches!(self.collector, Collector::Null)
    }

    /// Caps `Memory` retention at `capacity` events; beyond it, emissions
    /// are dropped (and counted) rather than stored. `None` removes the
    /// cap. Counting collectors are unaffected — they never store.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// Installs a registry counter bumped once per dropped event.
    pub fn set_drop_counter(&mut self, counter: Counter) {
        self.drop_counter = Some(counter);
    }

    /// Events discarded by the capacity cap since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Emits one event. The closure runs only when a collector is
    /// installed; callers put all allocation (clones, formatting) inside it.
    /// A full bounded `Memory` collector skips the closure too — a dropped
    /// event costs one counter bump, not a construction.
    #[inline]
    pub fn emit(&mut self, at: SimTime, f: impl FnOnce() -> EventKind) {
        match &mut self.collector {
            Collector::Null => {}
            Collector::Memory(events) => {
                if self.capacity.is_some_and(|cap| events.len() >= cap) {
                    self.dropped += 1;
                    if let Some(c) = &self.drop_counter {
                        c.inc();
                    }
                    return;
                }
                self.constructed += 1;
                events.push(TimedEvent { at, kind: f() });
            }
            Collector::Counting(n) => {
                self.constructed += 1;
                let _ = f();
                *n += 1;
            }
        }
    }

    /// Emits `n` events produced by `f(0)..f(n-1)` in one call — the
    /// batch twin of [`EventBus::emit`] for per-batch-member hot loops.
    /// The `Memory` collector reserves space once and pays the capacity
    /// check once instead of per event; a disabled bus never invokes the
    /// producer.
    pub fn emit_batch(&mut self, at: SimTime, n: usize, mut f: impl FnMut(usize) -> EventKind) {
        match &mut self.collector {
            Collector::Null => {}
            Collector::Memory(events) => {
                let room = match self.capacity {
                    Some(cap) => cap.saturating_sub(events.len()).min(n),
                    None => n,
                };
                events.reserve(room);
                for i in 0..room {
                    events.push(TimedEvent { at, kind: f(i) });
                }
                self.constructed += room as u64;
                let dropped = (n - room) as u64;
                if dropped > 0 {
                    self.dropped += dropped;
                    if let Some(c) = &self.drop_counter {
                        c.add(dropped);
                    }
                }
            }
            Collector::Counting(count) => {
                for i in 0..n {
                    let _ = f(i);
                }
                self.constructed += n as u64;
                *count += n as u64;
            }
        }
    }

    /// Recorded events (empty unless the collector is `Memory`).
    pub fn events(&self) -> &[TimedEvent] {
        match &self.collector {
            Collector::Memory(events) => events,
            _ => &[],
        }
    }

    /// Events constructed since creation (0 while disabled).
    pub fn constructed(&self) -> u64 {
        self.constructed
    }

    /// Events counted by a `Counting` collector (0 otherwise).
    pub fn counted(&self) -> u64 {
        match self.collector {
            Collector::Counting(n) => n,
            _ => 0,
        }
    }
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_event() -> EventKind {
        EventKind::ThreadSpawn { pid: 1, tid: 2 }
    }

    #[test]
    fn disabled_bus_never_runs_the_closure() {
        let mut bus = EventBus::disabled();
        let mut ran = false;
        bus.emit(SimTime::ZERO, || {
            ran = true;
            spawn_event()
        });
        assert!(!ran, "closure must not run while disabled");
        assert_eq!(bus.constructed(), 0);
        assert!(bus.events().is_empty());
        assert!(!bus.is_enabled());
    }

    #[test]
    fn recording_bus_stores_events_in_order() {
        let mut bus = EventBus::recording();
        bus.emit(SimTime::from_nanos(1), spawn_event);
        bus.emit(SimTime::from_nanos(2), || EventKind::ThreadExit {
            pid: 1,
            tid: 2,
            ok: true,
        });
        assert_eq!(bus.events().len(), 2);
        assert_eq!(bus.constructed(), 2);
        assert!(bus.events()[0].at < bus.events()[1].at);
    }

    #[test]
    fn counting_bus_counts_without_storing() {
        let mut bus = EventBus::counting();
        for _ in 0..5 {
            bus.emit(SimTime::ZERO, spawn_event);
        }
        assert_eq!(bus.counted(), 5);
        assert_eq!(bus.constructed(), 5);
        assert!(bus.events().is_empty());
    }

    #[test]
    fn bounded_bus_drops_beyond_capacity_without_constructing() {
        let mut bus = EventBus::recording();
        bus.set_capacity(Some(2));
        let mut ran = 0u32;
        for _ in 0..5 {
            bus.emit(SimTime::ZERO, || {
                ran += 1;
                spawn_event()
            });
        }
        assert_eq!(bus.events().len(), 2);
        assert_eq!(bus.dropped(), 3);
        assert_eq!(bus.constructed(), 2);
        assert_eq!(ran, 2, "dropped events must not run the closure");
    }

    #[test]
    fn drop_counter_tracks_drops() {
        let registry = crate::MetricsRegistry::new();
        let mut bus = EventBus::recording();
        bus.set_capacity(Some(1));
        bus.set_drop_counter(registry.counter("telemetry.events_dropped"));
        for _ in 0..3 {
            bus.emit(SimTime::ZERO, spawn_event);
        }
        assert_eq!(bus.dropped(), 2);
        assert_eq!(registry.counter_value("telemetry.events_dropped"), Some(2));
    }

    #[test]
    fn unbounded_bus_reports_zero_drops() {
        let mut bus = EventBus::recording();
        for _ in 0..100 {
            bus.emit(SimTime::ZERO, spawn_event);
        }
        assert_eq!(bus.dropped(), 0);
        assert_eq!(bus.events().len(), 100);
    }

    #[test]
    fn emit_batch_matches_per_event_semantics() {
        // Unbounded: all stored.
        let mut bus = EventBus::recording();
        bus.emit_batch(SimTime::from_nanos(7), 3, |i| EventKind::ThreadSpawn {
            pid: i as u64,
            tid: 0,
        });
        assert_eq!(bus.events().len(), 3);
        assert_eq!(bus.constructed(), 3);
        assert_eq!(bus.events()[2].at, SimTime::from_nanos(7));

        // Bounded: overflow dropped without running the producer.
        let mut bus = EventBus::recording();
        bus.set_capacity(Some(2));
        let mut ran = 0u32;
        bus.emit_batch(SimTime::ZERO, 5, |_| {
            ran += 1;
            spawn_event()
        });
        assert_eq!(bus.events().len(), 2);
        assert_eq!(bus.dropped(), 3);
        assert_eq!(ran, 2);

        // Disabled: nothing runs.
        let mut bus = EventBus::disabled();
        let mut ran = false;
        bus.emit_batch(SimTime::ZERO, 4, |_| {
            ran = true;
            spawn_event()
        });
        assert!(!ran);
        assert_eq!(bus.constructed(), 0);

        // Counting: counted, not stored.
        let mut bus = EventBus::counting();
        bus.emit_batch(SimTime::ZERO, 4, |_| spawn_event());
        assert_eq!(bus.counted(), 4);
    }

    #[test]
    fn set_collector_swaps_and_returns_old() {
        let mut bus = EventBus::recording();
        bus.emit(SimTime::ZERO, spawn_event);
        let old = bus.set_collector(Collector::Null);
        match old {
            Collector::Memory(events) => assert_eq!(events.len(), 1),
            _ => panic!("expected memory collector"),
        }
        assert!(!bus.is_enabled());
    }
}
