//! Stream-selection policies.
//!
//! On every scheduler step each channel with free queue slots serves the
//! ready stream its policy picks, up to a policy-defined quantum of
//! requests, and then picks again.  [`SchedPolicyKind`] names the policy.
//! The crate-internal `ReadySet` keeps each channel's ready streams ordered
//! by the policy's key, so a pick reads the first entry instead of passing
//! over every ready stream.

use std::collections::BTreeSet;

/// Identifier of a scheduling policy, used in configuration, CLI flags and
/// records.
///
/// # Examples
///
/// ```
/// use tbi_sched::SchedPolicyKind;
///
/// let kind: SchedPolicyKind = "weighted_share".parse().unwrap();
/// assert_eq!(kind, SchedPolicyKind::WeightedShare);
/// assert_eq!(kind.to_string(), "weighted_share");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicyKind {
    /// Cycle through ready streams in index order, one pick each.
    RoundRobin,
    /// Share channel slots in proportion to each stream's QoS weight
    /// (start-time-fair virtual-time queueing).
    WeightedShare,
    /// Always serve the ready stream whose head block has the earliest
    /// deadline.
    Edf,
}

impl SchedPolicyKind {
    /// Every policy, in the order they appear in sweeps and artifacts.
    pub const ALL: [SchedPolicyKind; 3] = [
        SchedPolicyKind::RoundRobin,
        SchedPolicyKind::WeightedShare,
        SchedPolicyKind::Edf,
    ];

    /// Stable snake-case label used in records and artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicyKind::RoundRobin => "round_robin",
            SchedPolicyKind::WeightedShare => "weighted_share",
            SchedPolicyKind::Edf => "edf",
        }
    }
}

impl std::fmt::Display for SchedPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for SchedPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "round_robin" | "rr" => Ok(SchedPolicyKind::RoundRobin),
            "weighted_share" | "ws" => Ok(SchedPolicyKind::WeightedShare),
            "edf" => Ok(SchedPolicyKind::Edf),
            other => Err(format!(
                "unknown policy '{other}' (expected round_robin, weighted_share or edf)"
            )),
        }
    }
}

/// Fixed-point scale for virtual-time arithmetic.
const VTIME_SCALE: u64 = 1 << 16;

/// Every channel's ready streams, ordered the way the policy picks.
///
/// A stream is ready on a channel while it has generated requests queued
/// for that channel.  Each channel holds its ready streams as
/// `(key, stream)` entries, with the key chosen by the policy:
///
/// - **round-robin:** a constant, so the entries stay in stream order and
///   a pick takes the first stream at or after the channel's cursor, else
///   the first;
/// - **weighted share:** the stream's virtual time, which serving `r`
///   requests at weight `w` advances by `r × 2¹⁶ / w`, so long-run service
///   is proportional to weight; a pick takes the smallest
///   `(vtime, stream)`;
/// - **earliest deadline first:** the deadline of the block at the head of
///   the stream's queue on that channel; a pick takes the smallest
///   `(head_deadline, stream)`.
///
/// The caller re-keys a stream only where its key can change — after a
/// serve moves the served stream's queue head, and on admission — and
/// [`ReadySet::on_served`] re-keys a weighted-share stream on every
/// channel holding it.  A pick is then one ordered-set lookup, whatever
/// the number of ready streams.
#[derive(Debug)]
pub(crate) struct ReadySet {
    kind: SchedPolicyKind,
    /// Stream count: the stride of `keys`.
    streams: usize,
    /// Per channel, the `(key, stream)` entry of every ready stream.
    ready: Vec<BTreeSet<(u64, u32)>>,
    /// `keys[channel * streams + stream]`: the stream's key on that
    /// channel while it is ready there.
    keys: Vec<Option<u64>>,
    /// Round-robin: per channel, the stream index the next pick starts
    /// from.
    cursor: Vec<u32>,
    /// Weighted share: per stream, the virtual time.
    vtime: Vec<u64>,
}

impl ReadySet {
    /// Creates empty ready sets for `streams` streams on `channels`
    /// channels under the `kind` policy.
    pub(crate) fn new(kind: SchedPolicyKind, streams: usize, channels: u32) -> Self {
        let channels = channels as usize;
        Self {
            kind,
            streams,
            ready: vec![BTreeSet::new(); channels],
            keys: vec![None; channels * streams],
            cursor: vec![0; channels],
            vtime: vec![0; streams],
        }
    }

    /// Which policy orders the sets.
    pub(crate) fn kind(&self) -> SchedPolicyKind {
        self.kind
    }

    /// Marks `stream` ready on `channel`, or re-keys it if it is ready
    /// there already.  `head_deadline` is the deadline of the block at the
    /// head of the stream's queue on `channel`.
    pub(crate) fn insert(&mut self, channel: u32, stream: u32, head_deadline: u64) {
        let key = match self.kind {
            SchedPolicyKind::RoundRobin => 0,
            SchedPolicyKind::WeightedShare => self.vtime[stream as usize],
            SchedPolicyKind::Edf => head_deadline,
        };
        self.set_key(channel as usize, stream, key);
    }

    fn set_key(&mut self, channel: usize, stream: u32, key: u64) {
        let slot = &mut self.keys[channel * self.streams + stream as usize];
        if *slot == Some(key) {
            return;
        }
        let set = &mut self.ready[channel];
        if let Some(old) = slot.replace(key) {
            set.remove(&(old, stream));
        }
        set.insert((key, stream));
    }

    /// Removes `stream` from `channel`'s ready set (a no-op if it is not
    /// ready there).
    pub(crate) fn remove(&mut self, channel: u32, stream: u32) {
        let channel = channel as usize;
        if let Some(old) = self.keys[channel * self.streams + stream as usize].take() {
            self.ready[channel].remove(&(old, stream));
        }
    }

    /// Picks the ready stream to serve next on `channel`, or `None` when
    /// no stream is ready there.
    pub(crate) fn pick(&mut self, channel: u32) -> Option<u32> {
        let channel = channel as usize;
        let set = &self.ready[channel];
        let &(_, stream) = match self.kind {
            SchedPolicyKind::RoundRobin => {
                let cursor = &mut self.cursor[channel];
                let first = set.range((0, *cursor)..).next().or_else(|| set.first())?;
                *cursor = first.1 + 1;
                first
            }
            SchedPolicyKind::WeightedShare | SchedPolicyKind::Edf => set.first()?,
        };
        Some(stream)
    }

    /// Records that `requests` requests of `stream`, whose weight is
    /// `weight`, were just enqueued.  Under weighted share this advances
    /// the stream's virtual time and re-keys it on every channel where it
    /// is ready.
    pub(crate) fn on_served(&mut self, stream: u32, requests: u64, weight: u32) {
        if self.kind != SchedPolicyKind::WeightedShare {
            return;
        }
        let weight = u64::from(weight.max(1));
        let vtime = &mut self.vtime[stream as usize];
        *vtime = vtime.saturating_add(requests.saturating_mul(VTIME_SCALE) / weight);
        let vtime = *vtime;
        for channel in 0..self.ready.len() {
            if self.keys[channel * self.streams + stream as usize].is_some() {
                self.set_key(channel, stream, vtime);
            }
        }
    }

    /// How many requests the scheduler may serve from one pick before
    /// picking again: `16 × weight` under weighted share, unbounded
    /// otherwise.
    pub(crate) fn quantum(&self, weight: u32) -> usize {
        match self.kind {
            SchedPolicyKind::WeightedShare => 16 * weight.max(1) as usize,
            SchedPolicyKind::RoundRobin | SchedPolicyKind::Edf => usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A ready stream as the replaced slice-taking `pick` saw it.
    struct View {
        stream: u32,
        weight: u32,
        head_deadline: u64,
    }

    fn view(stream: u32, weight: u32, head_deadline: u64) -> View {
        View {
            stream,
            weight,
            head_deadline,
        }
    }

    /// Makes `candidates` exactly the ready streams of `channel`, then
    /// picks.
    fn pick(set: &mut ReadySet, channel: u32, candidates: &[View]) -> u32 {
        for stream in 0..set.streams as u32 {
            match candidates.iter().find(|c| c.stream == stream) {
                Some(c) => set.insert(channel, stream, c.head_deadline),
                None => set.remove(channel, stream),
            }
        }
        set.pick(channel).expect("candidates is never empty")
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in SchedPolicyKind::ALL {
            assert_eq!(kind.label().parse::<SchedPolicyKind>().unwrap(), kind);
        }
        assert!("bogus".parse::<SchedPolicyKind>().is_err());
    }

    #[test]
    fn round_robin_cycles_per_channel() {
        let mut policy = ReadySet::new(SchedPolicyKind::RoundRobin, 3, 2);
        let candidates = [view(0, 1, 0), view(1, 1, 0), view(2, 1, 0)];
        assert_eq!(pick(&mut policy, 0, &candidates), 0);
        assert_eq!(pick(&mut policy, 0, &candidates), 1);
        // Channel 1 has its own cursor.
        assert_eq!(pick(&mut policy, 1, &candidates), 0);
        assert_eq!(pick(&mut policy, 0, &candidates), 2);
        // Cursor wraps.
        assert_eq!(pick(&mut policy, 0, &candidates), 0);
        // A missing stream is skipped.
        assert_eq!(pick(&mut policy, 0, &[view(0, 1, 0), view(2, 1, 0)]), 2);
    }

    #[test]
    fn weighted_share_serves_in_weight_proportion() {
        let mut policy = ReadySet::new(SchedPolicyKind::WeightedShare, 2, 1);
        let candidates = [view(0, 4, 0), view(1, 1, 0)];
        let mut served = [0u64; 2];
        for _ in 0..100 {
            let picked = pick(&mut policy, 0, &candidates);
            let quantum = policy.quantum(candidates[picked as usize].weight) as u64;
            served[picked as usize] += quantum;
            policy.on_served(picked, quantum, candidates[picked as usize].weight);
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (ratio - 4.0).abs() < 1.0,
            "expected ~4:1 service ratio, got {ratio} ({served:?})"
        );
    }

    #[test]
    fn edf_takes_earliest_deadline_with_stream_tiebreak() {
        let mut policy = ReadySet::new(SchedPolicyKind::Edf, 3, 1);
        assert_eq!(
            pick(
                &mut policy,
                0,
                &[view(0, 1, 900), view(1, 1, 100), view(2, 1, 500)]
            ),
            1
        );
        assert_eq!(pick(&mut policy, 0, &[view(1, 1, 700), view(2, 1, 700)]), 1);
    }

    #[test]
    fn single_candidate_is_always_picked() {
        for kind in SchedPolicyKind::ALL {
            let mut policy = ReadySet::new(kind, 4, 2);
            for _ in 0..5 {
                assert_eq!(pick(&mut policy, 1, &[view(3, 2, 42)]), 3, "{kind}");
            }
        }
    }

    /// The rule the ordered sets replaced, as a pass over `ready` (stream
    /// → head deadline, in stream order).
    fn reference_pick(
        kind: SchedPolicyKind,
        cursor: &mut u32,
        vtime: &[u64],
        ready: &BTreeMap<u32, u64>,
    ) -> Option<u32> {
        let first = *ready.keys().next()?;
        let picked = match kind {
            SchedPolicyKind::RoundRobin => {
                let picked = ready
                    .keys()
                    .copied()
                    .find(|&s| s >= *cursor)
                    .unwrap_or(first);
                *cursor = picked + 1;
                picked
            }
            SchedPolicyKind::WeightedShare => {
                let (_, stream) = ready.keys().map(|&s| (vtime[s as usize], s)).min()?;
                stream
            }
            SchedPolicyKind::Edf => {
                let (_, stream) = ready.iter().map(|(&s, &d)| (d, s)).min()?;
                stream
            }
        };
        Some(picked)
    }

    #[test]
    fn ordered_sets_pick_like_a_pass_over_every_ready_stream() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            // xorshift64*: deterministic and dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        };
        for kind in SchedPolicyKind::ALL {
            for channels in 1..=3u32 {
                for streams in [1usize, 2, 5, 9] {
                    let mut set = ReadySet::new(kind, streams, channels);
                    let mut ready = vec![BTreeMap::new(); channels as usize];
                    let mut cursor = vec![0u32; channels as usize];
                    let mut vtime = vec![0u64; streams];
                    let mut picks = 0;
                    for _ in 0..2_000 {
                        let channel = next(u64::from(channels)) as u32;
                        let stream = next(streams as u64) as u32;
                        let c = channel as usize;
                        match next(10) {
                            // Insert or re-key; few distinct deadlines make
                            // ties.
                            0..=2 => {
                                let deadline = 100 * next(4);
                                set.insert(channel, stream, deadline);
                                ready[c].insert(stream, deadline);
                            }
                            3 => {
                                set.remove(channel, stream);
                                ready[c].remove(&stream);
                            }
                            4 => {
                                let requests = next(40);
                                let weight = 1 + next(4) as u32;
                                set.on_served(stream, requests, weight);
                                if kind == SchedPolicyKind::WeightedShare {
                                    vtime[stream as usize] +=
                                        requests * VTIME_SCALE / u64::from(weight);
                                }
                            }
                            _ => {
                                let expected =
                                    reference_pick(kind, &mut cursor[c], &vtime, &ready[c]);
                                assert_eq!(
                                    set.pick(channel),
                                    expected,
                                    "{kind} on {channels} channels, {streams} streams"
                                );
                                picks += usize::from(expected.is_some());
                            }
                        }
                    }
                    assert!(picks > 100, "{kind}: only {picks} non-empty picks");
                }
            }
        }
    }
}
