//! Workload definitions and their inputs, generated from the seed before
//! any store exists: the fill order and one op stream per client.
//!
//! An op is one `u64`: the kind in the top 3 bits and a payload (a key,
//! or an index into the client's multi-get key table) below. Keys are
//! drawn here, never in the timed loop — the zipf sampler's CDF table
//! for two million ranks alone is 16 MB with a binary search per draw.

use optik_harness::{FastRng, Zipf};

pub const SHARDS: usize = 8;
pub const MULTI_GET_KEYS: usize = 16;
pub const RANGE_WIDTH: u64 = 100;
/// `put_with_ttl` lifetime, in `SystemClock` ticks (milliseconds).
pub const TTL_MS: u64 = 100;
/// `sweep_expired` budget.
pub const SWEEP_BUDGET: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Remove = 2,
    PutTtl = 3,
    MultiGet = 4,
    Range = 5,
    Sweep = 6,
}

impl Kind {
    const ALL: [Kind; 7] = [
        Kind::Get,
        Kind::Put,
        Kind::Remove,
        Kind::PutTtl,
        Kind::MultiGet,
        Kind::Range,
        Kind::Sweep,
    ];
}

const KIND_SHIFT: u32 = 61;
const PAYLOAD: u64 = (1 << KIND_SHIFT) - 1;

#[inline]
pub fn decode(op: u64) -> (Kind, u64) {
    (Kind::ALL[(op >> KIND_SHIFT) as usize], op & PAYLOAD)
}

fn encode(kind: Kind, payload: u64) -> u64 {
    debug_assert!(payload <= PAYLOAD);
    (kind as u64) << KIND_SHIFT | payload
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Hash-sharded `StripedOptikHashTable` shards.
    StripedOptik,
    /// Hash-sharded TTL store of `ResizableStripedHashTable` shards.
    ResizableTtl,
    /// `OptikSkipList2` shards over contiguous key partitions.
    SkipList,
}

#[derive(Clone, Copy, Debug)]
pub enum Keys {
    Uniform,
    /// Zipf with this exponent; rank 1 is the largest key.
    Zipf(f64),
}

pub struct Spec {
    pub name: &'static str,
    pub backend: Backend,
    /// Keys live in `[1, range]`.
    pub range: u64,
    /// Keys present after the fill.
    pub fill: usize,
    pub keys: Keys,
    /// Op mix in parts per 100 000, in `Kind` order.
    pub mix: [u32; 7],
    /// Ops per client stream (a power of two; clients cycle through it).
    pub stream_len: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "hash-read-large",
        backend: Backend::StripedOptik,
        range: 8 << 20,
        fill: 4 << 20,
        keys: Keys::Uniform,
        mix: [85_000, 5_000, 5_000, 0, 5_000, 0, 0],
        stream_len: 1 << 21,
    },
    Spec {
        name: "session-hot",
        backend: Backend::ResizableTtl,
        range: 16 << 10,
        fill: 16 << 10,
        keys: Keys::Zipf(1.2),
        mix: [40_000, 20_000, 24_900, 15_000, 0, 0, 100],
        stream_len: 1 << 21,
    },
    Spec {
        name: "ordered-range",
        backend: Backend::SkipList,
        range: 2 << 20,
        fill: 1 << 20,
        keys: Keys::Zipf(0.99),
        mix: [80_000, 5_000, 5_000, 0, 0, 10_000, 0],
        stream_len: 1 << 20,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// A value encodes its key: `key << 20 | stamp`, so every read result can
/// be checked against the key it was read under.
#[inline]
pub fn value_for(key: u64, stamp: u64) -> u64 {
    key << 20 | (stamp & 0xF_FFFF)
}

#[inline]
pub fn value_matches(key: u64, val: u64) -> bool {
    val >> 20 == key
}

/// The keys to insert, in insertion order: `spec.fill` distinct keys of
/// `[1, range]`, shuffled.
pub fn fill_keys(spec: &Spec, seed: u64) -> Vec<u32> {
    let mut rng = FastRng::new(seed ^ 0xF111);
    let mut keys: Vec<u32> = (1..=spec.range as u32).collect();
    // Partial Fisher-Yates: the first `fill` slots become a uniform sample.
    for i in 0..spec.fill {
        let j = i + rng.next_below((keys.len() - i) as u64) as usize;
        keys.swap(i, j);
    }
    keys.truncate(spec.fill);
    keys.shrink_to_fit();
    keys
}

/// One client's op stream, plus its multi-get key table.
pub struct Stream {
    pub ops: Vec<u64>,
    pub multi_keys: Vec<u64>,
}

pub fn streams(spec: &Spec, seed: u64, clients: usize) -> Vec<Stream> {
    let zipf = match spec.keys {
        Keys::Zipf(s) => Some(Zipf::new(spec.range as usize, s)),
        Keys::Uniform => None,
    };
    let zipf = zipf.as_ref();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || stream(spec, zipf, FastRng::for_thread(seed, c))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream generator panicked"))
            .collect()
    })
}

fn stream(spec: &Spec, zipf: Option<&Zipf>, mut rng: FastRng) -> Stream {
    let key = |rng: &mut FastRng| match zipf {
        Some(z) => z.sample_key(rng, 1, spec.range),
        None => rng.range_inclusive(1, spec.range),
    };
    let mut ops = Vec::with_capacity(spec.stream_len);
    let mut multi_keys = Vec::new();
    for _ in 0..spec.stream_len {
        let mut pick = rng.next_below(100_000) as u32;
        let kind = Kind::ALL
            .into_iter()
            .zip(spec.mix)
            .find(|&(_, share)| {
                let hit = pick < share;
                pick = pick.saturating_sub(share);
                hit
            })
            .map(|(k, _)| k)
            .expect("mix sums to 100 000");
        let payload = match kind {
            Kind::MultiGet => {
                let at = (multi_keys.len() / MULTI_GET_KEYS) as u64;
                for _ in 0..MULTI_GET_KEYS {
                    multi_keys.push(key(&mut rng));
                }
                at
            }
            Kind::Range => key(&mut rng).min(spec.range + 1 - RANGE_WIDTH),
            Kind::Sweep => 0,
            _ => key(&mut rng),
        };
        ops.push(encode(kind, payload));
    }
    Stream { ops, multi_keys }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_the_whole() {
        for s in &WORKLOADS {
            assert_eq!(s.mix.iter().sum::<u32>(), 100_000, "{}", s.name);
            assert!(s.stream_len.is_power_of_two());
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let s = spec("session-hot").unwrap();
        let a = streams(s, 7, 2);
        let b = streams(s, 7, 2);
        assert_eq!(a[1].ops, b[1].ops);
        assert_ne!(a[0].ops, a[1].ops);
        let f = fill_keys(s, 7);
        assert_eq!(f.len(), s.fill);
    }

    #[test]
    fn ops_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(decode(encode(kind, 12345)), (kind, 12345));
        }
    }
}
