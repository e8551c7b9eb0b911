//! Dependency-driven update release and reliable (re)transmission state.
//!
//! Controllers do not fire all updates at once: an update is *released*
//! (sent to its switch) only when its dependency set has drained, and
//! verified switch acknowledgements are what drain dependency sets (paper
//! §4.1). Updates with disjoint dependency sets proceed in parallel
//! (§3.3, intra-domain parallelism).
//!
//! Release is not delivery: the southbound channel may lose the update or
//! its acknowledgement. Each released update therefore sits in a
//! [`RetryTable`] — the one retransmission loop every sender in the system
//! shares: attempt count and next-retry deadline under exponential backoff
//! with deterministic jitter — and the tracker answers "what is due for
//! retransmission now?" ([`PendingUpdates::due_retries`]). An
//! update whose retry budget is exhausted is reported as **failed**
//! (together with every update transitively depending on it) instead of
//! silently stalling the dependency graph. Acknowledged updates are kept
//! in an archive so re-sync requests (NACKs) from switches that missed
//! them can be answered after a partition heals.

use crate::scheduler::ScheduledUpdate;
use simnet::time::{SimDuration, SimTime};
use southbound::types::{NetworkUpdate, SwitchId, UpdateId};
use std::collections::{BTreeMap, BTreeSet};

/// Backoff ceiling of every retransmission stream.
pub const MAX_BACKOFF: SimDuration = SimDuration::from_secs(2);

/// Retransmission policy: exponential backoff with deterministic jitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retransmission.
    pub base: SimDuration,
    /// Retransmissions allowed per entry (not counting the first send);
    /// once spent, the entry is reported exhausted.
    pub budget: u32,
    /// Seed for the deterministic jitter (mix in a per-sender value so
    /// replicas do not retransmit in lockstep).
    pub jitter_seed: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// A policy from its three parameters (see the field docs).
    pub fn new(base: SimDuration, budget: u32, jitter_seed: u64) -> Self {
        RetryPolicy {
            base,
            budget,
            jitter_seed,
        }
    }

    /// The backoff before retry number `attempt` (1-based) of `id`:
    /// `base * 2^(attempt-1)` capped at [`MAX_BACKOFF`], plus up to +25%
    /// jitter derived deterministically from the policy seed, the update
    /// identity and the attempt — seed-stable, but uncorrelated across
    /// senders and attempts.
    pub fn backoff(&self, id: UpdateId, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self.base.saturating_mul(1u64 << exp);
        let capped = raw.min(MAX_BACKOFF);
        let h = splitmix64(
            self.jitter_seed
                ^ id.event.0.rotate_left(17)
                ^ u64::from(id.seq) << 40
                ^ u64::from(attempt),
        );
        let jitter_ns = if capped.as_nanos() == 0 {
            0
        } else {
            h % (capped.as_nanos() / 4 + 1)
        };
        capped + SimDuration::from_nanos(jitter_ns)
    }
}

/// One message awaiting its answer.
#[derive(Clone, Debug)]
struct Entry<V> {
    payload: V,
    /// Identity the jitter is derived from.
    id: UpdateId,
    /// Retransmissions performed so far (the first send is attempt 0).
    attempts: u32,
    next_due: SimTime,
}

/// What [`RetryTable::sweep`] decided for one overdue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retry<K> {
    /// Send entry `.0`'s payload again; this is its retransmission number
    /// `.1` (1-based — the first send was attempt 0).
    Resend(K, u32),
    /// Entry `.0`'s budget is spent: it has been dropped from the table.
    Exhausted(K),
}

/// The one retransmission loop: messages sent once and kept until answered,
/// each re-sent on its [`RetryPolicy`] backoff at most `budget` times.
///
/// Every stream counts the same way. The first send is attempt 0 and
/// happens at [`RetryTable::insert`]; retransmission `k` (1-based) is due
/// `backoff(id, k)` after the send before it; after `budget`
/// retransmissions the next deadline reports the entry
/// [`Retry::Exhausted`] and drops it, so a spent entry never contributes a
/// deadline again.
#[derive(Clone, Debug)]
pub struct RetryTable<K, V> {
    policy: RetryPolicy,
    entries: BTreeMap<K, Entry<V>>,
}

impl<K: Ord + Copy, V> RetryTable<K, V> {
    /// An empty table retransmitting under `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        RetryTable {
            policy,
            entries: BTreeMap::new(),
        }
    }

    /// Records the first send of `payload` at `now` (replacing any entry
    /// under `key`). `id` seeds the entry's jitter.
    pub fn insert(&mut self, key: K, id: UpdateId, payload: V, now: SimTime) {
        let next_due = now + self.policy.backoff(id, 1);
        self.entries.insert(
            key,
            Entry {
                payload,
                id,
                attempts: 0,
                next_due,
            },
        );
    }

    /// Stops retransmitting `key` (it was answered); returns its payload.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|e| e.payload)
    }

    /// Drops every entry `keep` rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.entries.retain(|k, e| keep(k, &e.payload));
    }

    /// The payload under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|e| &e.payload)
    }

    /// `true` iff `key` is still awaiting its answer.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Entries awaiting an answer.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing awaits an answer.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Earliest deadline in the table (for timer arming); `None` when the
    /// table is empty.
    pub fn next_due(&self) -> Option<SimTime> {
        self.entries.values().map(|e| e.next_due).min()
    }

    /// Spends one retransmission of `key` at `now` and pushes its deadline
    /// out by the next backoff. `None` when `key` is absent or its budget
    /// is already spent.
    pub fn bump(&mut self, key: &K, now: SimTime) -> Option<u32> {
        let e = self.entries.get_mut(key)?;
        if e.attempts >= self.policy.budget {
            return None;
        }
        e.attempts += 1;
        e.next_due = now + self.policy.backoff(e.id, e.attempts + 1);
        Some(e.attempts)
    }

    /// Decides every entry whose deadline is at or before `now`, in key
    /// order: retransmit it (budget permitting) or drop it as exhausted.
    pub fn sweep(&mut self, now: SimTime) -> Vec<Retry<K>> {
        let due: Vec<K> = self
            .entries
            .iter()
            .filter(|(_, e)| e.next_due <= now)
            .map(|(&k, _)| k)
            .collect();
        due.into_iter()
            .map(|key| match self.bump(&key, now) {
                Some(attempt) => Retry::Resend(key, attempt),
                None => {
                    self.entries.remove(&key);
                    Retry::Exhausted(key)
                }
            })
            .collect()
    }
}

/// Messages sent once and kept as sent: an ask is answered with the kept
/// copy, re-sent as-is — nothing is signed, tagged or checked again.
///
/// Re-sends are numbered per key 1, 2, 3, … with no gap; an ask the
/// caller's filter refuses gets nothing and spends no number. A slot is
/// empty when a restarted keeper's journal recorded the send but not the
/// message ([`Kept::reserve`]); its first re-send rebuilds the message.
#[derive(Clone, Debug)]
pub struct Kept<K, M> {
    slots: BTreeMap<K, (Option<M>, u32)>,
}

impl<K: Ord, M> Kept<K, M> {
    /// Keeps `m` as sent under `key` (replacing a kept one; the numbering
    /// carries on).
    pub fn keep(&mut self, key: K, m: M) {
        self.slots.entry(key).or_default().0 = Some(m);
    }

    /// Records that `key` was sent, without the message.
    pub fn reserve(&mut self, key: K) {
        self.slots.entry(key).or_default();
    }

    /// Answers an ask for `key` with the kept message and its re-send
    /// number: `make` fills an empty slot, then `asks` may complete the
    /// message in place and decides. `None` when nothing was sent under
    /// `key`, `make` cannot rebuild it, or `asks` refuses.
    pub fn resend(
        &mut self,
        key: &K,
        asks: impl FnOnce(&mut M) -> bool,
        make: impl FnOnce() -> Option<M>,
    ) -> Option<(&M, u32)> {
        let (slot, resends) = self.slots.get_mut(key)?;
        if slot.is_none() {
            *slot = make();
        }
        let m = slot.as_mut()?;
        if !asks(m) {
            return None;
        }
        *resends += 1;
        Some((m, *resends))
    }

    /// `true` iff something was sent under `key`.
    pub fn contains(&self, key: &K) -> bool {
        self.slots.contains_key(key)
    }

    /// The keys in `range`, in order.
    pub fn keys(&self, range: impl std::ops::RangeBounds<K>) -> impl Iterator<Item = &K> {
        self.slots.range(range).map(|(k, _)| k)
    }

    /// Drops every entry whose key `keep` rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.slots.retain(|k, _| keep(k));
    }

    /// Drops every entry (a phase change: what was signed no longer counts).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

impl<K, M> Default for Kept<K, M> {
    fn default() -> Self {
        Kept { slots: BTreeMap::new() }
    }
}

/// Words one sender may have on record in a [`Tally`] under keys not
/// registered. Honest senders sit far below it; it bounds what a Byzantine
/// one can make a receiver check, remember and journal.
pub const MAX_EARLY: usize = 1024;

/// Verified words that may overtake their subject (a release its held body,
/// a ready its gated body, a report its barrier, an ack its update): per key,
/// the distinct senders on record. A key is *registered* once its subject is
/// known; words under other keys count against their sender's [`MAX_EARLY`]
/// until the key is registered or forgotten.
#[derive(Clone, Debug)]
pub struct Tally<K, S> {
    words: BTreeMap<K, BTreeSet<S>>,
    registered: BTreeSet<K>,
    /// Per sender: its words under keys not registered.
    spent: BTreeMap<S, usize>,
}

impl<K: Ord + Copy, S: Ord + Copy> Tally<K, S> {
    /// `true` iff a word of `sender` under `key` is worth its check: not on
    /// record yet, and `key` registered or `sender`'s allowance not spent.
    pub fn admits(&self, key: K, sender: S) -> bool {
        let spent = self.spent.get(&sender).is_some_and(|&n| n >= MAX_EARLY);
        !self.has(key, sender) && (self.registered.contains(&key) || !spent)
    }

    /// Puts a verified word on record (once per sender and key).
    pub fn record(&mut self, key: K, sender: S) {
        if self.words.entry(key).or_default().insert(sender) && !self.registered.contains(&key) {
            *self.spent.entry(sender).or_default() += 1;
        }
    }

    /// Registers `key`: its words are early no more.
    pub fn register(&mut self, key: K) {
        if self.registered.insert(key) {
            self.refund(key);
        }
    }

    /// Drops `key`'s words and registration.
    pub fn forget(&mut self, key: K) {
        if !self.registered.remove(&key) {
            self.refund(key);
        }
        self.words.remove(&key);
    }

    fn refund(&mut self, key: K) {
        for s in self.words.get(&key).into_iter().flatten() {
            self.spent.entry(*s).and_modify(|n| *n -= 1);
        }
    }

    /// Drops every word and keeps the registrations (a phase change).
    pub fn clear_words(&mut self) {
        self.words.clear();
        self.spent.clear();
    }

    /// `true` iff `sender`'s word under `key` is on record.
    pub fn has(&self, key: K, sender: S) -> bool {
        self.words.get(&key).is_some_and(|from| from.contains(&sender))
    }

    /// The senders on record under `key`, in order.
    pub fn senders(&self, key: K) -> impl Iterator<Item = S> + '_ {
        self.words.get(&key).into_iter().flatten().copied()
    }

    /// Every word on record, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, S)> + '_ {
        self.words.iter().flat_map(|(&k, from)| from.iter().map(move |&s| (k, s)))
    }

    /// Keys on record: with words, registered, or both.
    pub fn len(&self) -> usize {
        let unregistered = self.words.keys().filter(|k| !self.registered.contains(k));
        self.registered.len() + unregistered.count()
    }

    /// `true` iff no key is on record.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty() && self.registered.is_empty()
    }
}

impl<K, S> Default for Tally<K, S> {
    fn default() -> Self {
        Tally { words: BTreeMap::new(), registered: BTreeSet::new(), spent: BTreeMap::new() }
    }
}

/// The updates a retry sweep decided on.
#[derive(Clone, Debug, Default)]
pub struct RetryBatch {
    /// Updates to retransmit now, paired with their retransmission number
    /// (1-based; the initial send is number 0).
    pub resend: Vec<(NetworkUpdate, u32)>,
    /// Updates whose budget is exhausted — reported failed (includes
    /// waiting updates transitively dependent on a failed one).
    pub failed: Vec<UpdateId>,
}

/// What [`PendingUpdates::admit`] did with a schedule.
#[derive(Clone, Debug, Default)]
pub struct Admission {
    /// Updates ready to send (recorded as in flight).
    pub ready: Vec<NetworkUpdate>,
    /// Updates their own switch had already acknowledged: acknowledged
    /// here and now, never put in flight.
    pub retired: Vec<UpdateId>,
}

/// Tracks scheduled updates until acknowledged, with per-update send state.
#[derive(Clone, Debug)]
pub struct PendingUpdates {
    waiting: BTreeMap<UpdateId, ScheduledUpdate>,
    sent: RetryTable<UpdateId, NetworkUpdate>,
    acked: BTreeSet<UpdateId>,
    /// Acknowledgements that overtook their update's admission, with the
    /// switch each came from: nothing is known of the update yet, so nothing
    /// is believed of the ack until [`PendingUpdates::admit`] can check it.
    early: Tally<UpdateId, SwitchId>,
    /// Acknowledged updates kept for re-sync replies.
    completed: BTreeMap<UpdateId, NetworkUpdate>,
    failed: BTreeSet<UpdateId>,
}

impl PendingUpdates {
    /// An empty tracker retransmitting under `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        PendingUpdates {
            waiting: BTreeMap::new(),
            sent: RetryTable::new(policy),
            acked: BTreeSet::new(),
            early: Tally::default(),
            completed: BTreeMap::new(),
            failed: BTreeSet::new(),
        }
    }

    /// Admits a schedule: the updates that are immediately ready to send
    /// (empty dependency sets) are recorded as in flight at `now`. An update
    /// whose own switch acknowledged it early ([`PendingUpdates::ack_early`])
    /// is retired on the spot — acknowledged and archived, its dependents
    /// drained, never sent; an early ack from any other switch is discarded.
    pub fn admit(&mut self, schedule: Vec<ScheduledUpdate>, now: SimTime) -> Admission {
        let mut retired = Vec::new();
        for mut s in schedule {
            let id = s.update.id;
            let early = self.early.has(id, s.update.switch);
            self.early.forget(id);
            if early {
                self.completed.insert(id, s.update);
                retired.push(id);
                continue;
            }
            // Dependencies already acknowledged (e.g. re-admission after a
            // membership change) are pre-drained.
            s.deps.retain(|d| !self.acked.contains(d));
            self.waiting.insert(id, s);
        }
        for &id in &retired {
            self.drain(id);
        }
        Admission {
            ready: self.release_ready(now),
            retired,
        }
    }

    /// Records a verified acknowledgement; returns updates that became
    /// ready (recorded as in flight at `now`). The switch applies an update
    /// on a quorum of shares, so its ack can find the update still waiting
    /// on dependencies here that the quorum has seen drained: it is done
    /// all the same, and is never sent.
    pub fn ack(&mut self, id: UpdateId, now: SimTime) -> Vec<NetworkUpdate> {
        let held = self.waiting.remove(&id).map(|s| s.update);
        if let Some(update) = self.sent.remove(&id).or(held) {
            self.completed.insert(id, update);
        }
        self.drain(id);
        self.release_ready(now)
    }

    /// Parks a verified acknowledgement of an update not admitted yet
    /// ([`PendingUpdates::target`] is `None`), sent by switch `from`. An
    /// update that already failed is never admitted again: its ack is
    /// dropped, not parked for ever.
    pub fn ack_early(&mut self, id: UpdateId, from: SwitchId) {
        if !self.is_failed(id) {
            self.early.record(id, from);
        }
    }

    /// `true` iff an ack of `id`, not admitted yet, from `from` is worth its check.
    pub fn admits_early(&self, id: UpdateId, from: SwitchId) -> bool {
        self.early.admits(id, from)
    }

    /// Marks `id` acknowledged and drops it from every dependency set.
    fn drain(&mut self, id: UpdateId) {
        self.acked.insert(id);
        for s in self.waiting.values_mut() {
            s.deps.remove(&id);
        }
    }

    fn release_ready(&mut self, now: SimTime) -> Vec<NetworkUpdate> {
        let ready_ids: Vec<UpdateId> = self
            .waiting
            .iter()
            .filter(|(_, s)| s.deps.is_empty())
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::with_capacity(ready_ids.len());
        for id in ready_ids {
            let s = self.waiting.remove(&id).expect("present");
            self.sent.insert(id, id, s.update, now);
            out.push(s.update);
        }
        out
    }

    /// Ids of every acknowledged update, in id order (durability snapshots
    /// persist this set so a recovered controller pre-drains acked deps).
    pub fn acked_ids(&self) -> impl Iterator<Item = UpdateId> + '_ {
        self.acked.iter().copied()
    }

    /// Sweeps the in-flight set at `now`: returns the updates due for
    /// retransmission (their backoff is advanced) and the updates whose
    /// retry budget is exhausted. Exhausted updates — and every waiting
    /// update transitively depending on one — move to the failed set.
    pub fn due_retries(&mut self, now: SimTime) -> RetryBatch {
        let mut batch = RetryBatch::default();
        for r in self.sent.sweep(now) {
            match r {
                Retry::Resend(id, attempt) => {
                    batch
                        .resend
                        .push((self.sent.get(&id).copied().expect("kept"), attempt));
                }
                Retry::Exhausted(id) => batch.failed.push(id),
            }
        }
        // Cascade: a waiting update whose dependency failed can never
        // release; fail it too (transitively) so the graph drains into an
        // explicit failure report instead of a silent stall.
        let mut frontier: Vec<UpdateId> = batch.failed.clone();
        while let Some(f) = frontier.pop() {
            self.failed.insert(f);
            let doomed: Vec<UpdateId> = self
                .waiting
                .iter()
                .filter(|(_, s)| s.deps.contains(&f))
                .map(|(&id, _)| id)
                .collect();
            for id in doomed {
                self.waiting.remove(&id);
                batch.failed.push(id);
                frontier.push(id);
            }
        }
        batch
    }

    /// Earliest retry deadline among in-flight updates, if any (for timer
    /// arming).
    pub fn next_due(&self) -> Option<SimTime> {
        self.sent.next_due()
    }

    /// Answers a re-sync request (NACK) for `id`: returns the signed-update
    /// payload to retransmit if this controller still holds it — either in
    /// flight (budget permitting; the retry clock is advanced so the NACK
    /// response replaces the next scheduled retransmission), in the
    /// acknowledged archive (a healed-partition peer re-requesting state),
    /// or still waiting on dependencies (a caller that sends updates before
    /// releasing them; no clock runs for it yet).
    pub fn resync(&mut self, id: UpdateId, now: SimTime) -> Option<NetworkUpdate> {
        if self.sent.contains(&id) {
            self.sent.bump(&id, now)?;
            return self.sent.get(&id).copied();
        }
        let waiting = self.waiting.get(&id).map(|s| s.update);
        self.completed.get(&id).copied().or(waiting)
    }

    /// `true` iff `id` is admitted and still waits on dependencies.
    pub fn is_waiting(&self, id: UpdateId) -> bool {
        self.waiting.contains_key(&id)
    }

    /// Number of updates in flight (sent, unacknowledged).
    pub fn in_flight_count(&self) -> usize {
        self.sent.len()
    }

    /// `true` iff nothing is waiting or in flight.
    pub fn is_drained(&self) -> bool {
        self.waiting.is_empty() && self.sent.is_empty()
    }

    /// Number of updates still waiting on dependencies.
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Number of updates that exhausted their retry budget (including
    /// dependents abandoned by the cascade).
    pub fn failed_count(&self) -> usize {
        self.failed.len()
    }

    /// `true` iff `id` has been acknowledged.
    pub fn is_acked(&self, id: UpdateId) -> bool {
        self.acked.contains(&id)
    }

    /// `true` iff `id` is acknowledged *and* no copy of it is in flight, so
    /// a further acknowledgement of it can change nothing.
    pub fn is_settled(&self, id: UpdateId) -> bool {
        self.acked.contains(&id) && !self.sent.contains(&id)
    }

    /// The switch `id` is addressed to, once this tracker has been handed it.
    pub fn target(&self, id: UpdateId) -> Option<SwitchId> {
        let waiting = self.waiting.get(&id).map(|s| &s.update);
        let known = waiting.or_else(|| self.sent.get(&id)).or_else(|| self.completed.get(&id));
        known.map(|u| u.switch)
    }

    /// `true` iff `id` was reported failed.
    pub fn is_failed(&self, id: UpdateId) -> bool {
        self.failed.contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{ReversePathScheduler, UpdateScheduler};
    use southbound::types::{
        EventId, FlowAction, FlowMatch, FlowRule, HostId, NextHop, SwitchId, UpdateKind,
    };

    const T0: SimTime = SimTime::ZERO;

    fn chain(n: u32, event: u64) -> Vec<ScheduledUpdate> {
        let updates: Vec<NetworkUpdate> = (0..n)
            .map(|i| NetworkUpdate {
                id: UpdateId {
                    event: EventId(event),
                    seq: i,
                },
                switch: SwitchId(i),
                kind: UpdateKind::Install(FlowRule {
                    matcher: FlowMatch {
                        src: HostId(0),
                        dst: HostId(1),
                    },
                    action: FlowAction::Forward(NextHop::Switch(SwitchId(i + 1))),
                }),
            })
            .collect();
        ReversePathScheduler.schedule(&updates)
    }

    #[test]
    fn releases_in_reverse_path_order() {
        let mut p = tracker();
        let ready = p.admit(chain(3, 1), T0).ready;
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].switch, SwitchId(2), "last hop first");
        let ready = p.ack(ready[0].id, T0);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].switch, SwitchId(1));
        let ready = p.ack(ready[0].id, T0);
        assert_eq!(ready[0].switch, SwitchId(0));
        let ready = p.ack(ready[0].id, T0);
        assert!(ready.is_empty());
        assert!(p.is_drained());
    }

    #[test]
    fn disjoint_events_progress_in_parallel() {
        let mut p = tracker();
        let mut ready = p.admit(chain(2, 1), T0).ready;
        ready.extend(p.admit(chain(2, 2), T0).ready);
        // One releasable update per event.
        assert_eq!(ready.len(), 2);
        let events: BTreeSet<u64> = ready.iter().map(|u| u.id.event.0).collect();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn duplicate_acks_are_idempotent() {
        let mut p = tracker();
        let ready = p.admit(chain(2, 1), T0).ready;
        let id = ready[0].id;
        let r1 = p.ack(id, T0);
        assert_eq!(r1.len(), 1);
        let r2 = p.ack(id, T0);
        assert!(r2.is_empty());
        assert!(p.is_acked(id));
    }

    #[test]
    fn admission_after_ack_pre_drains() {
        let mut p = tracker();
        let sched = chain(2, 1);
        let first_ready = p.admit(sched.clone(), T0).ready[0];
        p.ack(first_ready.id, T0);
        // Re-admitting the same schedule: the dep on the acked update is
        // already satisfied.
        let mut p2 = p.clone();
        let ready = p2.admit(sched, T0).ready;
        assert!(ready.iter().any(|u| u.id.seq == 0));
    }

    /// `chain(3, _)`'s last hop: released first, addressed to switch 2.
    fn last_hop(event: u64) -> UpdateId {
        UpdateId {
            event: EventId(event),
            seq: 2,
        }
    }

    #[test]
    fn an_early_ack_from_the_target_retires_the_update_at_admission() {
        let mut p = tracker();
        let head = last_hop(1);
        p.ack_early(head, SwitchId(2));
        assert!(!p.is_acked(head), "nothing is believed before admission");
        let admitted = p.admit(chain(3, 1), T0);
        assert_eq!(admitted.retired, vec![head]);
        // Never in flight, archived for re-syncs, and its dependent released.
        assert!(p.is_settled(head));
        assert_eq!(p.resync(head, T0).map(|u| u.id), Some(head));
        assert_eq!(admitted.ready.len(), 1);
        assert_eq!(admitted.ready[0].switch, SwitchId(1));
        assert_eq!(p.in_flight_count(), 1);
        // A second, live ack finds the update settled (dropped unchecked).
        assert!(p.ack(head, T0).is_empty());
        assert_eq!(p.in_flight_count(), 1);
    }

    #[test]
    fn an_early_ack_from_another_switch_changes_nothing() {
        let mut p = tracker();
        let head = last_hop(1);
        p.ack_early(head, SwitchId(1));
        let admitted = p.admit(chain(3, 1), T0);
        assert!(admitted.retired.is_empty());
        assert_eq!(admitted.ready.len(), 1);
        assert_eq!(admitted.ready[0].id, head, "sent like any other update");
        assert!(!p.is_acked(head) && !p.is_settled(head));
        assert_eq!(p.waiting_count(), 2, "no successor was pre-released");
        // The parked ack is spent: re-admission does not find it either.
        assert!(p.clone().admit(chain(3, 1), T0).retired.is_empty());
    }

    #[test]
    fn an_early_ack_of_a_failed_update_is_not_parked() {
        let policy = RetryPolicy::new(SimDuration::from_millis(5), 1, 0);
        let mut p = PendingUpdates::new(policy);
        let head = p.admit(chain(1, 1), T0).ready[0].id;
        while !p.is_failed(head) {
            let due = p.next_due().expect("in flight until it fails");
            p.due_retries(due);
        }
        assert_eq!(p.target(head), None, "a failed update is forgotten");
        p.ack_early(head, SwitchId(0));
        assert!(p.early.is_empty());
    }

    #[test]
    fn an_ack_of_an_update_still_waiting_here_retires_it_unsent() {
        let mut p = tracker();
        let head = p.admit(chain(3, 1), T0).ready[0].id;
        // The switch applied the middle hop on the other controllers'
        // quorum: its ack arrives here before the head's does.
        let middle = UpdateId { seq: 1, ..head };
        let ready = p.ack(middle, T0);
        assert_eq!(ready.iter().map(|u| u.id.seq).collect::<Vec<_>>(), vec![0], "its dependent goes");
        assert!(p.is_settled(middle));
        assert_eq!(p.resync(middle, T0).map(|u| u.id), Some(middle));
        // The head's own ack then finds nothing left to release.
        assert!(p.ack(head, T0).is_empty());
        assert_eq!((p.in_flight_count(), p.waiting_count()), (1, 0));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy::new(SimDuration::from_millis(10), 8, 7);
        let id = UpdateId {
            event: EventId(9),
            seq: 0,
        };
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=4 {
            let b = policy.backoff(id, attempt);
            // Within [pure, pure * 1.25].
            let pure = SimDuration::from_millis(10).saturating_mul(1 << (attempt - 1));
            assert!(b >= pure, "attempt {attempt}: {b} < {pure}");
            assert!(b.as_nanos() <= pure.as_nanos() + pure.as_nanos() / 4 + 1);
            assert!(b > prev);
            prev = b;
        }
        // Capped (plus jitter headroom).
        let b = policy.backoff(id, 12);
        assert!(b >= MAX_BACKOFF);
        assert!(b.as_nanos() <= MAX_BACKOFF.as_nanos() + MAX_BACKOFF.as_nanos() / 4 + 1);
        // Deterministic.
        assert_eq!(policy.backoff(id, 3), policy.backoff(id, 3));
    }

    #[test]
    fn due_retries_resends_then_exhausts() {
        let policy = RetryPolicy::new(SimDuration::from_millis(10), 2, 0);
        let mut p = PendingUpdates::new(policy);
        let ready = p.admit(chain(1, 1), T0).ready;
        let id = ready[0].id;
        // Not yet due.
        assert!(p.due_retries(T0).resend.is_empty());
        // First retry.
        let mut now = p.next_due().unwrap();
        let b = p.due_retries(now);
        assert_eq!(b.resend.len(), 1);
        assert!(b.failed.is_empty());
        // Second retry.
        now = p.next_due().unwrap();
        let b = p.due_retries(now);
        assert_eq!(b.resend.len(), 1);
        // Budget exhausted: reported failed, removed from flight.
        now = p.next_due().unwrap();
        let b = p.due_retries(now);
        assert!(b.resend.is_empty());
        assert_eq!(b.failed, vec![id]);
        assert!(p.is_failed(id));
        assert_eq!(p.in_flight_count(), 0);
        assert!(p.next_due().is_none());
    }

    #[test]
    fn exhaustion_cascades_to_dependents() {
        let policy = RetryPolicy::new(SimDuration::from_millis(5), 1, 1);
        let mut p = PendingUpdates::new(policy);
        let ready = p.admit(chain(3, 1), T0).ready;
        assert_eq!(ready.len(), 1);
        // Exhaust the in-flight head of the chain.
        let now = p.next_due().unwrap();
        p.due_retries(now);
        let now = p.next_due().unwrap();
        let b = p.due_retries(now);
        // The head failed and both (transitive) dependents were abandoned.
        assert_eq!(b.failed.len(), 3);
        assert_eq!(p.failed_count(), 3);
        assert!(p.is_drained(), "failure drains the graph explicitly");
    }

    #[test]
    fn resync_answers_from_flight_and_archive() {
        let mut p = tracker();
        let ready = p.admit(chain(2, 1), T0).ready;
        let first = ready[0].id;
        // In flight: resync returns the payload.
        assert_eq!(p.resync(first, T0).unwrap().id, first);
        // A waiting update is answered too, and no clock starts for it.
        let second = UpdateId { seq: 0, ..first };
        assert_eq!(p.resync(second, T0).map(|u| u.id), Some(second));
        assert!(p.is_waiting(second) && p.in_flight_count() == 1);
        // After the ack, it moves to the archive and is still answerable.
        p.ack(first, T0);
        assert_eq!(p.resync(first, T0).unwrap().id, first);
        assert!(!p.is_waiting(second), "released by the ack");
        // Unknown ids are not.
        let unknown = UpdateId {
            event: EventId(99),
            seq: 9,
        };
        assert!(p.resync(unknown, T0).is_none());
    }

    /// An empty tracker under the test policy with a generous budget.
    fn tracker() -> PendingUpdates {
        PendingUpdates::new(policy(16))
    }

    fn policy(budget: u32) -> RetryPolicy {
        RetryPolicy::new(SimDuration::from_millis(10), budget, 3)
    }

    fn table(budget: u32) -> RetryTable<u8, &'static str> {
        RetryTable::new(policy(budget))
    }

    const ID: UpdateId = UpdateId {
        event: EventId(5),
        seq: 1,
    };

    #[test]
    fn table_numbers_retransmissions_from_one_on_the_policy_backoff() {
        let mut t = table(3);
        let policy = policy(3);
        t.insert(7, ID, "m", T0);
        assert!(
            t.sweep(T0).is_empty(),
            "the first send is attempt 0, not a retry"
        );
        let mut now = T0;
        for attempt in 1..=3 {
            // Retransmission k is due backoff(id, k) after the send before it.
            assert_eq!(t.next_due(), Some(now + policy.backoff(ID, attempt)));
            now = t.next_due().unwrap();
            assert_eq!(t.sweep(now), vec![Retry::Resend(7, attempt)]);
            assert_eq!(t.get(&7), Some(&"m"));
        }
    }

    #[test]
    fn table_exhausts_after_budget_retransmissions_and_goes_quiet() {
        let mut t = table(2);
        t.insert(1, ID, "a", T0);
        let mut resent = 0;
        loop {
            let now = t.next_due().expect("a live entry always has a deadline");
            match t.sweep(now)[..] {
                [Retry::Resend(1, attempt)] => {
                    resent += 1;
                    assert_eq!(attempt, resent);
                }
                [Retry::Exhausted(1)] => break,
                ref other => panic!("unexpected sweep {other:?}"),
            }
        }
        assert_eq!(resent, 2, "budget counts retransmissions");
        // A spent entry is gone: no deadline, nothing further to sweep.
        assert!(t.is_empty());
        assert_eq!(t.next_due(), None);
        assert!(t.sweep(T0 + SimDuration::from_secs(3600)).is_empty());
    }

    #[test]
    fn table_next_due_ignores_exhausted_neighbours_and_answered_entries() {
        let mut t = table(1);
        t.insert(1, ID, "old", T0);
        let later = T0 + SimDuration::from_secs(1);
        t.insert(2, ID, "new", later);
        // Entry 1: resend, then exhausted; entry 2 is untouched meanwhile.
        let due = t.next_due().unwrap();
        assert_eq!(t.sweep(due), vec![Retry::Resend(1, 1)]);
        let due = t.next_due().unwrap();
        assert!(due < later);
        assert_eq!(t.sweep(due), vec![Retry::Exhausted(1)]);
        assert_eq!(
            t.next_due(),
            Some(later + policy(1).backoff(ID, 1)),
            "only the live entry contributes a deadline"
        );
        assert_eq!(t.remove(&2), Some("new"));
        assert_eq!(t.next_due(), None);
    }

    #[test]
    fn table_bump_spends_budget_and_defers_the_deadline() {
        let mut t = table(1);
        t.insert(1, ID, "a", T0);
        let now = T0 + SimDuration::from_millis(1);
        assert_eq!(t.bump(&1, now), Some(1));
        assert_eq!(t.next_due(), Some(now + policy(1).backoff(ID, 2)));
        assert_eq!(t.bump(&1, now), None, "budget spent");
        assert_eq!(t.bump(&9, now), None, "absent");
        assert_eq!(table(0).next_due(), None);
    }

    fn unmade() -> Option<&'static str> {
        panic!("a kept message is never rebuilt")
    }

    #[test]
    fn kept_numbers_resends_from_one_without_gaps_per_key() {
        let mut k = Kept::default();
        k.keep(1, "a");
        k.keep(2, "b");
        for n in 1..=3 {
            assert_eq!(k.resend(&1, |_| true, unmade), Some((&"a", n)));
        }
        assert_eq!(k.resend(&2, |_| true, unmade), Some((&"b", 1)), "its own numbering");
        assert_eq!(k.resend(&3, |_| true, unmade), None, "nothing sent under 3");
    }

    #[test]
    fn kept_refused_ask_gets_nothing_and_spends_no_number() {
        let mut k = Kept::default();
        k.keep(1, vec![7]);
        assert_eq!(k.resend(&1, |m| m.len() > 1, || unreachable!()), None);
        // The filter may complete the message in place before it goes out.
        let grow = |m: &mut Vec<u8>| {
            m.push(8);
            true
        };
        assert_eq!(k.resend(&1, grow, || unreachable!()), Some((&vec![7, 8], 1)));
    }

    #[test]
    fn kept_empty_slot_is_made_once_then_resent_as_is() {
        let mut k = Kept::default();
        k.reserve(4);
        assert!(k.contains(&4));
        // A slot its maker cannot fill stays empty and spends no number.
        assert_eq!(k.resend(&4, |_| true, || None), None);
        let mut made = 0;
        for n in 1..=3 {
            let make = || {
                made += 1;
                Some("rebuilt")
            };
            assert_eq!(k.resend(&4, |_| true, make), Some((&"rebuilt", n)));
        }
        assert_eq!(made, 1);
        // Reserving a kept key keeps its message.
        k.reserve(4);
        assert_eq!(k.resend(&4, |_| true, unmade), Some((&"rebuilt", 4)));
    }

    #[test]
    fn kept_retain_and_clear_drop_entries() {
        let mut k = Kept::default();
        for key in 1..=4 {
            k.keep(key, "m");
        }
        k.retain(|&key| key % 2 == 0);
        assert_eq!(k.keys(..).copied().collect::<Vec<_>>(), vec![2, 4]);
        assert!(!k.contains(&1) && k.resend(&1, |_| true, unmade).is_none());
        assert_eq!(k.keys(3..).count(), 1);
        k.clear();
        assert!(k.keys(..).next().is_none() && k.resend(&4, |_| true, unmade).is_none());
    }

    /// A tally whose sender 0 has spent its allowance on keys
    /// `0..MAX_EARLY`, none registered.
    fn spent_tally() -> Tally<usize, u8> {
        let mut t = Tally::default();
        for k in 0..MAX_EARLY {
            assert!(t.admits(k, 0), "word {k} is within the allowance");
            t.record(k, 0);
        }
        t
    }

    #[test]
    fn tally_admits_a_sender_once_per_key() {
        let mut t = Tally::default();
        t.register(2);
        for k in [1, 2] {
            assert!(t.admits(k, 7));
            t.record(k, 7);
            assert!(!t.admits(k, 7) && t.has(k, 7), "key {k}: on record already");
            assert!(t.admits(k, 8), "another sender is");
        }
        t.record(1, 7);
        assert_eq!(t.senders(1).collect::<Vec<_>>(), vec![7], "counted once");
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(1, 7), (2, 7)]);
    }

    #[test]
    fn tally_refuses_early_words_past_the_allowance() {
        let mut t = spent_tally();
        let next = MAX_EARLY;
        assert!(!t.admits(next, 0), "the allowance is spent");
        assert!(t.admits(next, 1), "another sender's is not");
        t.register(next);
        assert!(t.admits(next, 0), "a registered key costs no allowance");
        t.record(next, 0);
        assert!(!t.admits(next + 1, 0));
        assert_eq!(t.len(), MAX_EARLY + 1);
    }

    #[test]
    fn tally_register_and_forget_each_refund_once() {
        let (fresh, more) = (MAX_EARLY, MAX_EARLY + 1);
        let mut t = spent_tally();
        for _ in 0..2 {
            t.register(0);
        }
        assert!(t.admits(fresh, 0), "registering refunds its words");
        t.record(fresh, 0);
        assert!(!t.admits(more, 0), "once");
        for _ in 0..2 {
            t.forget(1);
        }
        assert!(!t.has(1, 0) && t.admits(more, 0), "forgetting refunds its words");
        t.record(more, 0);
        t.forget(0);
        assert!(!t.admits(more + 1, 0), "once, and a registered key refunds nothing");
        assert_eq!(t.len(), MAX_EARLY, "keys 2.. and the two fresh ones");
    }

    #[test]
    fn tally_clear_words_keeps_registrations() {
        let mut t = spent_tally();
        t.register(MAX_EARLY);
        t.record(MAX_EARLY, 1);
        t.clear_words();
        assert!(!t.has(MAX_EARLY, 1) && t.senders(MAX_EARLY).next().is_none());
        assert_eq!(t.len(), 1, "the registration stays");
        assert!(t.admits(0, 0), "the allowance is back");
        t.record(MAX_EARLY, 0);
        for k in 0..MAX_EARLY {
            t.record(k, 0);
        }
        assert!(!t.admits(MAX_EARLY + 1, 0), "the registered key's word cost nothing");
    }

    /// After any sequence of calls in which every word recorded was admitted
    /// first, each sender's allowance in use is its words under keys not
    /// registered, and never more than [`MAX_EARLY`].
    #[test]
    fn tally_allowance_in_use_is_the_early_words() {
        substrate::forall!(cases = 16, |g| {
            let mut t: Tally<usize, u8> = Tally::default();
            for _ in 0..g.usize_in(0..5000) {
                let (k, s) = (g.usize_in(0..4000), g.u8() % 2);
                match g.usize_in(0..20_000) {
                    0..18_000 if t.admits(k, s) => t.record(k, s),
                    18_000..19_000 => t.register(k),
                    19_000..19_999 => t.forget(k),
                    19_999 => t.clear_words(),
                    _ => {}
                }
            }
            for s in 0..2 {
                let early = t.iter().filter(|&(k, from)| from == s && !t.registered.contains(&k));
                let in_use = t.spent.get(&s).copied().unwrap_or(0);
                assert_eq!(in_use, early.count(), "sender {s}");
                assert!(in_use <= MAX_EARLY);
            }
        });
    }
}
