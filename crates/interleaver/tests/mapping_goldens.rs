//! Goldens of the mapping layer's address rules, recorded from the
//! implementations they replaced: the stand-alone page tiling, the channel
//! router's own row-major decoder and its lane-order family.
//!
//! * Every `(channel, address)` pair [`ChannelMapping::route`] gives a
//!   triangle position, for each named scheme on five channel/rank
//!   topologies of three presets, at n = 203 (no multiple of any stripe
//!   tile; it shrinks the tile on the 8-channel topology) and n = 300.
//! * The same walk for the linear-decode family: permutations and an
//!   xorfold that carry the topology's channel bits, a gather permutation,
//!   and row-major under every decode scheme.
//! * [`MappingKind::Tiled`]'s single-channel `map` on every preset, plus
//!   the largest dimension each preset holds under it and the exact
//!   capacity error one dimension past that.
//!
//! Each hash is FNV-1a over the `(channel, rank, bank group, bank, row,
//! column)` values in position order.

use tbi_dram::standards::{ALL_CONFIGS, MODERN_CONFIGS};
use tbi_dram::{
    AddressField, BitPermutation, ChannelTopology, DecodeScheme, DramConfig, FoldOp, FoldStep,
    PhysicalAddress, XorFold,
};
use tbi_interleaver::mapping::ChannelMapping;
use tbi_interleaver::{InterleaverError, MappingKind};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one routed address into `hash`.
fn fnv(hash: u64, channel: u32, address: PhysicalAddress) -> u64 {
    let PhysicalAddress {
        rank,
        bank_group,
        bank,
        row,
        column,
    } = address;
    [channel, rank, bank_group, bank, row, column]
        .into_iter()
        .fold(hash, |hash, value| {
            (hash ^ u64::from(value)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Every preset: the paper's Table I devices, then the modern ones.
fn presets() -> impl Iterator<Item = DramConfig> {
    ALL_CONFIGS
        .iter()
        .chain(MODERN_CONFIGS)
        .map(|&(standard, rate)| DramConfig::preset(standard, rate).unwrap())
}

/// Topologies folded into each [`ROUTE_GOLDEN`] hash, in hashing order.
const ROUTE_TOPOLOGIES: [(u32, u32); 5] = [(1, 1), (2, 1), (2, 2), (4, 1), (8, 1)];

/// Per (preset, n): one hash per [`MappingKind::ALL`] entry over
/// [`ROUTE_TOPOLOGIES`], each walking the triangle in write order.  The
/// stagger is a no-op without bank groups, so DDR3's last two agree.
const ROUTE_GOLDEN: [(&str, u32, [u64; 5]); 6] = [
    (
        "DDR3-800",
        203,
        [
            0x3439f51247d42e3a,
            0xcfc00a8cd13c6afd,
            0x588f1c138462132b,
            0x676d9623555d23b7,
            0x676d9623555d23b7,
        ],
    ),
    (
        "DDR3-800",
        300,
        [
            0x649a0fb080f50a9e,
            0x678373ce8db53897,
            0xd66be706b02cdcf3,
            0xa83c11ec15a7b407,
            0xa83c11ec15a7b407,
        ],
    ),
    (
        "DDR4-3200",
        203,
        [
            0x177e1b1ad0670e3c,
            0x248ce15ef13ad154,
            0x76fa1d1f18529e8b,
            0xfc25ac769bc16173,
            0xef6641554d5d7adb,
        ],
    ),
    (
        "DDR4-3200",
        300,
        [
            0xfcb7c35ee305bf88,
            0x92d31db70b33d165,
            0xab115a38658ca5b3,
            0xabef0cd18404f0eb,
            0x082d5070362ef595,
        ],
    ),
    (
        "HBM2-2400",
        203,
        [
            0x11e299fdfe6df1a8,
            0x861d976b264d89f3,
            0xa2e5895e17198fb7,
            0xa133374e7c6b8737,
            0xa7fbffac2fac220f,
        ],
    ),
    (
        "HBM2-2400",
        300,
        [
            0x400ed05865554f68,
            0x6d64471afde7e329,
            0xc32e2dd3e74e4d0b,
            0xe9de22774e9dba23,
            0x35d9440006c45395,
        ],
    ),
];

/// Hashes [`ChannelMapping::route`] over the triangle in write order on
/// every [`ROUTE_TOPOLOGIES`] entry of `config`, routing with the kind
/// `kind` gives for that topology's configuration.
fn route_hash(config: &DramConfig, n: u32, kind: impl Fn(&DramConfig) -> MappingKind) -> u64 {
    let mut hash = FNV_OFFSET;
    for (channels, ranks) in ROUTE_TOPOLOGIES {
        let config = config
            .clone()
            .with_topology(ChannelTopology::new(channels, ranks));
        let mapping = ChannelMapping::new(kind(&config), &config, n).unwrap();
        for i in 0..n {
            for j in 0..n - i {
                let (channel, address) = mapping.route(i, j);
                hash = fnv(hash, channel, address);
            }
        }
    }
    hash
}

#[test]
fn channel_routes_reproduce_the_recorded_golden() {
    for (label, n, expected) in ROUTE_GOLDEN {
        let config = presets().find(|config| config.label() == label).unwrap();
        for (kind, expected) in MappingKind::ALL.into_iter().zip(expected) {
            let hash = route_hash(&config, n, |_| kind);
            assert_eq!(hash, expected, "{label} n={n} {kind}: got {hash:#018x}");
        }
    }
}

/// The decode scheme's permutation for `config`'s topology, so it carries
/// the topology's channel and rank bits.
fn scheme_permutation(config: &DramConfig) -> BitPermutation {
    BitPermutation::for_scheme(config.decode_scheme, &config.geometry, config.topology).unwrap()
}

/// `mapgen_speed`'s gather permutation: the scheme permutation with its
/// bottom bits swapped against high bits.
fn gather_permutation(config: &DramConfig) -> MappingKind {
    let scheme = scheme_permutation(config);
    let top = scheme.fields().len() - 1;
    MappingKind::Permutation(scheme.with_swap(0, top).with_swap(1, top / 2))
}

/// An xorfold of the scheme permutation that rewrites the channel field
/// (the bank field on one channel) from the row bits, so the lane depends
/// on row bits too.
fn channel_fold(config: &DramConfig) -> MappingKind {
    let target = if config.topology.channels > 1 {
        AddressField::Channel
    } else {
        AddressField::Bank
    };
    let fold = XorFold::new(&[FoldStep {
        target,
        source: AddressField::Row,
        shift: 0,
        op: FoldOp::Xor,
    }])
    .unwrap();
    MappingKind::XorFolded(scheme_permutation(config), fold)
}

/// Per (preset, n), hashed like [`ROUTE_GOLDEN`]: the scheme permutation
/// with the topology's channel bits, its gather variant, its channel fold,
/// then row-major under each [`DecodeScheme::ALL`] entry.  The default
/// scheme's row-major hash is [`ROUTE_GOLDEN`]'s; the bank-partitioned
/// scheme fills only bank 0 at these sizes, so DDR3 and DDR4 agree there.
const LINEAR_GOLDEN: [(&str, u32, [u64; 6]); 6] = [
    (
        "DDR3-800",
        203,
        [
            0x532a58a4ac4619ab,
            0xaf4bebe084e98c93,
            0xa2b9e22c632868df,
            0x2aecba84af2e924a,
            0x3439f51247d42e3a,
            0x122d504a8dc52f42,
        ],
    ),
    (
        "DDR3-800",
        300,
        [
            0xc5849b0e617f9886,
            0x181de724802afd67,
            0x917b4122be0ffca1,
            0xd17a5fe196392f06,
            0x649a0fb080f50a9e,
            0x11caac9d138e5492,
        ],
    ),
    (
        "DDR4-3200",
        203,
        [
            0x8cc29731969b81ab,
            0xa9205558c49bcd83,
            0x0878c29fdad31fcb,
            0x3e91d05f7cdc5a06,
            0x177e1b1ad0670e3c,
            0x122d504a8dc52f42,
        ],
    ),
    (
        "DDR4-3200",
        300,
        [
            0xbef1e5f0f9b1786b,
            0xc92235bba019c5d7,
            0xa29594168faeb863,
            0x7e95380dfa5fd9ca,
            0xfcb7c35ee305bf88,
            0x11caac9d138e5492,
        ],
    ),
    (
        "HBM2-2400",
        203,
        [
            0x023187a4f3e4d00b,
            0x70a5cdd74b824443,
            0xba8dd11b8f92a513,
            0xb5fb08b7f5a3036e,
            0x11e299fdfe6df1a8,
            0x30ecc74250d71272,
        ],
    ),
    (
        "HBM2-2400",
        300,
        [
            0x0aff1ce4c04789f6,
            0x0062112ed43afc0f,
            0xc9d729e0ac1e9555,
            0x2b3feddb3fb0600a,
            0x400ed05865554f68,
            0x77feeb524173015e,
        ],
    ),
];

#[test]
fn linear_decode_routes_reproduce_the_recorded_golden() {
    for (label, n, expected) in LINEAR_GOLDEN {
        let config = presets().find(|config| config.label() == label).unwrap();
        let permutation =
            |config: &DramConfig| MappingKind::Permutation(scheme_permutation(config));
        let mut hashes = vec![
            (
                "permutation".to_string(),
                route_hash(&config, n, permutation),
            ),
            (
                "gather".to_string(),
                route_hash(&config, n, gather_permutation),
            ),
            ("xorfold".to_string(), route_hash(&config, n, channel_fold)),
        ];
        for scheme in DecodeScheme::ALL {
            let config = DramConfig {
                decode_scheme: scheme,
                ..config.clone()
            };
            let hash = route_hash(&config, n, |_| MappingKind::RowMajor);
            hashes.push((format!("row-major {scheme:?}"), hash));
        }
        for ((name, hash), expected) in hashes.into_iter().zip(expected) {
            assert_eq!(hash, expected, "{label} n={n} {name}: got {hash:#018x}");
        }
    }
}

/// Per preset, in [`presets`] order: the hashes of [`MappingKind::Tiled`]'s
/// `map` over the whole n × n square at n = 203 and n = 300, the largest
/// dimension the preset holds under the scheme, and the required and
/// available bursts of the capacity error one dimension past it.
const TILED_GOLDEN: [(&str, [u64; 2], u32, u64, u64); 16] = [
    (
        "DDR3-800",
        [0xe08a4b0b7f852548, 0xea365434318d9ad5],
        8192,
        68_224_000,
        67_108_864,
    ),
    (
        "DDR3-1600",
        [0xe08a4b0b7f852548, 0xea365434318d9ad5],
        8192,
        68_224_000,
        67_108_864,
    ),
    (
        "DDR4-1600",
        [0x37b51ce2cffa038b, 0xf9a099d84d481b25],
        11_520,
        135_753_728,
        134_217_728,
    ),
    (
        "DDR4-3200",
        [0x37b51ce2cffa038b, 0xf9a099d84d481b25],
        11_520,
        135_753_728,
        134_217_728,
    ),
    (
        "DDR5-3200",
        [0xbc43def230f70279, 0xe9a2a5f6b8a3d8f5],
        11_520,
        135_753_728,
        134_217_728,
    ),
    (
        "DDR5-6400",
        [0xbc43def230f70279, 0xe9a2a5f6b8a3d8f5],
        11_520,
        135_753_728,
        134_217_728,
    ),
    (
        "LPDDR4-2133",
        [0x056ce79e8099c8b5, 0xcd966686c4c12255],
        8192,
        67_699_200,
        67_108_864,
    ),
    (
        "LPDDR4-4266",
        [0x056ce79e8099c8b5, 0xcd966686c4c12255],
        8192,
        67_699_200,
        67_108_864,
    ),
    (
        "LPDDR5-4267",
        [0xd5a1b4af158e64e1, 0x2a062dc28fb01195],
        11_520,
        134_278_144,
        134_217_728,
    ),
    (
        "LPDDR5-8533",
        [0xd5a1b4af158e64e1, 0x2a062dc28fb01195],
        11_520,
        134_278_144,
        134_217_728,
    ),
    (
        "HBM2-2000",
        [0xd5a1b4af158e64e1, 0x2a062dc28fb01195],
        5760,
        33_961_984,
        33_554_432,
    ),
    (
        "HBM2-2400",
        [0xd5a1b4af158e64e1, 0x2a062dc28fb01195],
        5760,
        33_961_984,
        33_554_432,
    ),
    (
        "GDDR6-14000",
        [0xd5a1b4af158e64e1, 0x2a062dc28fb01195],
        5760,
        33_961_984,
        33_554_432,
    ),
    (
        "GDDR6-16000",
        [0xd5a1b4af158e64e1, 0x2a062dc28fb01195],
        5760,
        33_961_984,
        33_554_432,
    ),
    (
        "DDR5-3DS-4800",
        [0xbc43def230f70279, 0xe9a2a5f6b8a3d8f5],
        11_520,
        135_753_728,
        134_217_728,
    ),
    (
        "DDR5-3DS-6400",
        [0xbc43def230f70279, 0xe9a2a5f6b8a3d8f5],
        11_520,
        135_753_728,
        134_217_728,
    ),
];

#[test]
fn tiled_map_and_capacity_edge_reproduce_the_recorded_golden() {
    for (config, (label, expected, largest, required_bursts, available_bursts)) in
        presets().zip(TILED_GOLDEN)
    {
        assert_eq!(config.label(), label);
        for (n, expected) in [203, 300].into_iter().zip(expected) {
            let mapping = MappingKind::Tiled.build(&config, n).unwrap();
            let mut hash = FNV_OFFSET;
            for i in 0..n {
                for j in 0..n {
                    hash = fnv(hash, 0, mapping.map(i, j));
                }
            }
            assert_eq!(hash, expected, "{label} n={n}: got {hash:#018x}");
        }
        assert!(
            MappingKind::Tiled.build(&config, largest).is_ok(),
            "{label}"
        );
        assert_eq!(
            MappingKind::Tiled.build(&config, largest + 1).err(),
            Some(InterleaverError::CapacityExceeded {
                required_bursts,
                available_bursts,
            }),
            "{label} n={}",
            largest + 1
        );
    }
}
