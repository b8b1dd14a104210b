//! Generic bit-permutation address mappings.
//!
//! The three [`DecodeScheme`]s slice a linear burst index into
//! (rank, bank group, bank, row, column) fields in a *fixed* order.  This
//! module generalizes that idea: a [`BitPermutation`] assigns **every single
//! bit** of the linear address to one of the six address fields (channel,
//! rank, bank group, bank, row, column), so the full design space of
//! power-of-two DRAM address mappings becomes a searchable set of
//! permutations rather than three hand-picked layouts.  A
//! [`PermutationMapping`] decodes linear addresses through such a
//! permutation, with a shift/mask fast path whenever every field occupies a
//! contiguous bit run (which covers all three classic schemes) and a
//! bit-gather path for arbitrary permutations.
//!
//! Every [`DecodeScheme`] is a specific permutation, built by
//! [`BitPermutation::for_scheme`], so a [`PermutationMapping`] of that
//! permutation is the workspace's controller address decoder: the row-major
//! baseline, [`DramConfig::linear_decoder`](crate::DramConfig::linear_decoder)
//! and the channel router's linear splice all decode through it.  A golden
//! test in this module pins the schemes' decodes on every preset.

use crate::address::{DecodeScheme, PhysicalAddress};
use crate::batch::{AddressBatch, AddressLanesMut};
use crate::error::ConfigError;
use crate::geometry::{ChannelTopology, DeviceGeometry};

/// Maximum number of linear-address bits a [`BitPermutation`] can describe.
///
/// The largest modelled subsystem (64 channels × 8 ranks × 2^17 rows ×
/// 32 banks × 128 columns) needs 38 bits; 48 leaves headroom for custom
/// geometries while keeping the permutation `Copy`.
pub const MAX_PERMUTATION_BITS: usize = 48;

/// One destination field of a linear-address bit.
///
/// The single-letter codes are used by the compact textual form of a
/// [`BitPermutation`] (see its `Display`/`FromStr` implementations):
/// `H` channel, `K` rank, `G` bank group, `B` bank, `R` row, `C` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressField {
    /// Channel index bit (`H`, for c*H*annel — `C` names the column).
    Channel,
    /// Rank index bit (`K`, matching the `K<rank>` display of
    /// [`PhysicalAddress`]).
    Rank,
    /// Bank-group index bit (`G`).
    BankGroup,
    /// Bank-within-group index bit (`B`).
    Bank,
    /// Row index bit (`R`).
    Row,
    /// Column index bit (`C`).
    Column,
}

impl AddressField {
    /// All six fields in canonical order (channel, rank, bank group, bank,
    /// row, column).
    pub const ALL: [AddressField; 6] = [
        AddressField::Channel,
        AddressField::Rank,
        AddressField::BankGroup,
        AddressField::Bank,
        AddressField::Row,
        AddressField::Column,
    ];

    /// The single-letter code used in the textual permutation form.
    #[must_use]
    pub fn code(self) -> char {
        match self {
            AddressField::Channel => 'H',
            AddressField::Rank => 'K',
            AddressField::BankGroup => 'G',
            AddressField::Bank => 'B',
            AddressField::Row => 'R',
            AddressField::Column => 'C',
        }
    }

    /// Parses a single-letter code (case-insensitive).
    #[must_use]
    pub fn from_code(code: char) -> Option<Self> {
        match code.to_ascii_uppercase() {
            'H' => Some(AddressField::Channel),
            'K' => Some(AddressField::Rank),
            'G' => Some(AddressField::BankGroup),
            'B' => Some(AddressField::Bank),
            'R' => Some(AddressField::Row),
            'C' => Some(AddressField::Column),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            AddressField::Channel => 0,
            AddressField::Rank => 1,
            AddressField::BankGroup => 2,
            AddressField::Bank => 3,
            AddressField::Row => 4,
            AddressField::Column => 5,
        }
    }
}

/// An assignment of every linear-address bit to an [`AddressField`].
///
/// Bit 0 of the slice is the least-significant linear bit.  The *k*-th bit
/// assigned to a field (scanning LSB→MSB) becomes bit *k* of that field, so
/// a permutation with contiguous per-field runs is exactly a classic
/// shift/mask decode chain.  The type is `Copy` (a fixed array), so it can
/// ride inside [`MappingKind`](https://docs.rs/tbi_interleaver)-style enums
/// and hash maps without allocation.
///
/// The textual form lists the codes **MSB-first** (like a binary number):
/// `"RRCCBBGG"` is a 8-bit space with bank-group bits lowest.
///
/// # Examples
///
/// ```
/// use tbi_dram::{AddressField, BitPermutation};
///
/// let p: BitPermutation = "RRCCBBGG".parse()?;
/// assert_eq!(p.total_bits(), 8);
/// assert_eq!(p.width_of(AddressField::Row), 2);
/// assert_eq!(p.to_string(), "RRCCBBGG");
/// // Swapping two bit positions yields a neighbouring design point.
/// let q = p.with_swap(0, 7);
/// assert_eq!(q.to_string(), "GRCCBBGR");
/// # Ok::<(), tbi_dram::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitPermutation {
    /// Field of each linear bit, LSB-first; entries at `len..` are padding.
    fields: [AddressField; MAX_PERMUTATION_BITS],
    len: u8,
}

impl BitPermutation {
    /// Creates a permutation from the per-bit field assignment (LSB-first).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] if `fields` is empty or
    /// longer than [`MAX_PERMUTATION_BITS`].
    pub fn new(fields: &[AddressField]) -> Result<Self, ConfigError> {
        if fields.is_empty() || fields.len() > MAX_PERMUTATION_BITS {
            return Err(bit_count_error(fields.len()));
        }
        let mut array = [AddressField::Row; MAX_PERMUTATION_BITS];
        array[..fields.len()].copy_from_slice(fields);
        Ok(Self {
            fields: array,
            len: fields.len() as u8,
        })
    }

    /// The permutation expressing `scheme` on `geometry` scaled out to
    /// `topology`: the channel bits at the very bottom of the linear space
    /// (`channel = linear mod channels`, the classic channel-interleaved
    /// controller mapping), then the scheme's fields from least to most
    /// significant, with the rank bits directly above the bank bits.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] if the geometry or the
    /// topology fails its `validate` (a dimension that is not a power of
    /// two, for one) or the subsystem needs more than
    /// [`MAX_PERMUTATION_BITS`] bits.
    pub fn for_scheme(
        scheme: DecodeScheme,
        geometry: &DeviceGeometry,
        topology: ChannelTopology,
    ) -> Result<Self, ConfigError> {
        Ok(scheme_layout(scheme, geometry, topology)?.0)
    }

    /// The per-bit field assignment, LSB-first.
    #[must_use]
    pub fn fields(&self) -> &[AddressField] {
        &self.fields[..self.len as usize]
    }

    /// Number of linear-address bits the permutation covers.
    #[must_use]
    pub fn total_bits(&self) -> u32 {
        u32::from(self.len)
    }

    /// Number of bits assigned to `field`.
    #[must_use]
    pub fn width_of(&self, field: AddressField) -> u32 {
        self.fields().iter().filter(|&&f| f == field).count() as u32
    }

    /// Returns a copy with the fields of bit positions `a` and `b` swapped —
    /// the neighbourhood move of the mapping search.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    #[must_use]
    pub fn with_swap(mut self, a: usize, b: usize) -> Self {
        let len = self.len as usize;
        assert!(a < len && b < len, "swap ({a},{b}) outside {len} bits");
        self.fields.swap(a, b);
        self
    }

    /// Checks that the per-field widths match one rank of `geometry` scaled
    /// out to `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] if the geometry or the
    /// topology fails its `validate`, or naming the mismatched field.
    pub fn validate_for(
        &self,
        geometry: &DeviceGeometry,
        topology: ChannelTopology,
    ) -> Result<(), ConfigError> {
        check_widths(&self.field_masks(), geometry, topology)
    }

    /// The linear-address bits of each field, in [`AddressField::index`]
    /// order.
    fn field_masks(&self) -> [u64; 6] {
        let mut masks = [0u64; 6];
        for (bit, field) in self.fields().iter().enumerate() {
            masks[field.index()] |= 1u64 << bit;
        }
        masks
    }
}

/// `scheme`'s permutation on `geometry` scaled out to `topology` (see
/// [`BitPermutation::for_scheme`]) and the linear bits of each of its
/// fields, filled straight from the field widths.
fn scheme_layout(
    scheme: DecodeScheme,
    geometry: &DeviceGeometry,
    topology: ChannelTopology,
) -> Result<(BitPermutation, [u64; 6]), ConfigError> {
    use AddressField::{Bank, BankGroup, Channel, Column, Rank, Row};
    let widths = field_widths(geometry, topology)?;
    let order = match scheme {
        DecodeScheme::RowBankBankGroupColumn => [Channel, Column, BankGroup, Bank, Rank, Row],
        DecodeScheme::RowColumnBankBankGroup => [Channel, BankGroup, Bank, Rank, Column, Row],
        DecodeScheme::BankBankGroupRowColumn => [Channel, Column, Row, BankGroup, Bank, Rank],
    };
    let len = widths.iter().sum::<u32>() as usize;
    if len == 0 || len > MAX_PERMUTATION_BITS {
        return Err(bit_count_error(len));
    }
    let mut fields = [Row; MAX_PERMUTATION_BITS];
    let mut masks = [0u64; 6];
    let mut next = 0;
    for field in order {
        let width = widths[field.index()];
        fields[next as usize..(next + width) as usize].fill(field);
        masks[field.index()] = ((1u64 << width) - 1) << next;
        next += width;
    }
    let permutation = BitPermutation {
        fields,
        len: len as u8,
    };
    Ok((permutation, masks))
}

/// The error for a permutation covering `len` bits, outside
/// `1..=`[`MAX_PERMUTATION_BITS`].
fn bit_count_error(len: usize) -> ConfigError {
    ConfigError::InvalidGeometry {
        field: "permutation",
        reason: format!("permutation must cover 1..={MAX_PERMUTATION_BITS} bits, got {len}"),
    }
}

/// Checks the field widths of `masks` against one rank of `geometry`
/// scaled out to `topology`.
fn check_widths(
    masks: &[u64; 6],
    geometry: &DeviceGeometry,
    topology: ChannelTopology,
) -> Result<(), ConfigError> {
    let expected = field_widths(geometry, topology)?;
    for field in AddressField::ALL {
        let (got, expected) = (masks[field.index()].count_ones(), expected[field.index()]);
        if got != expected {
            return Err(ConfigError::InvalidGeometry {
                field: "permutation",
                reason: format!(
                    "field {field:?} has {got} bits but the subsystem needs {expected}"
                ),
            });
        }
    }
    Ok(())
}

/// Textual form: field codes MSB-first (see [`AddressField::code`]).
impl std::fmt::Display for BitPermutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for field in self.fields().iter().rev() {
            f.write_fmt(format_args!("{}", field.code()))?;
        }
        Ok(())
    }
}

impl std::str::FromStr for BitPermutation {
    type Err = ConfigError;

    /// Parses the MSB-first code string emitted by `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut fields = Vec::with_capacity(s.len());
        for c in s.chars().rev() {
            fields.push(AddressField::from_code(c).ok_or_else(|| {
                ConfigError::InvalidGeometry {
                    field: "permutation",
                    reason: format!("unknown field code `{c}` (expected one of H K G B R C)"),
                }
            })?);
        }
        Self::new(&fields)
    }
}

/// Maximum number of [`FoldStep`]s an [`XorFold`] can hold.
///
/// Two steps already express the paper's optimized diagonal (bank folded
/// with the row-tile bits on each phase side); four leaves room for the
/// portfolio search to stack boundary corrections while keeping the fold
/// `Copy`.
pub const MAX_FOLD_STEPS: usize = 4;

/// The combining operator of one [`FoldStep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FoldOp {
    /// `target ^= value` — the classic bank-XOR trick; self-inverse.
    Xor,
    /// `target = (target + value) mod 2^width` — the additive diagonal of
    /// the paper's optimized scheme (`bank = (tile_i + tile_j) mod banks`);
    /// inverted by modular subtraction.
    Add,
}

impl FoldOp {
    /// The operator code used in the textual fold form (`^` or `+`).
    #[must_use]
    pub fn code(self) -> char {
        match self {
            FoldOp::Xor => '^',
            FoldOp::Add => '+',
        }
    }

    /// Parses an operator code.
    #[must_use]
    pub fn from_code(code: char) -> Option<Self> {
        match code {
            '^' => Some(FoldOp::Xor),
            '+' => Some(FoldOp::Add),
            _ => None,
        }
    }
}

/// One fold: `target op= (source >> shift) & (2^width(target) - 1)`,
/// applied to the decoded field values after the bit permutation.
///
/// Because the step only rewrites `target` (and `target != source`, enforced
/// by [`XorFold::new`]), it is a bijection on the six-field state for either
/// operator: XOR is self-inverse and ADD inverts by modular subtraction.
///
/// The textual form is `<target><op><source><shift>`, e.g. `B^R7` (bank
/// XOR-folded with row bits 7..) or `B+R2` (bank plus row bits 2..,
/// mod the bank width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FoldStep {
    /// Field being rewritten.
    pub target: AddressField,
    /// Field supplying the folded value (left unchanged).
    pub source: AddressField,
    /// Right-shift applied to the source value before masking.
    pub shift: u8,
    /// Combining operator.
    pub op: FoldOp,
}

impl FoldStep {
    /// Canonical padding entry for unused slots (never applied; `target ==
    /// source` is rejected for real steps, so padding is unambiguous).
    const PAD: FoldStep = FoldStep {
        target: AddressField::Row,
        source: AddressField::Row,
        shift: 0,
        op: FoldOp::Xor,
    };
}

impl std::fmt::Display for FoldStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            self.target.code(),
            self.op.code(),
            self.source.code(),
            self.shift
        )
    }
}

/// A short sequence of [`FoldStep`]s layered on top of a [`BitPermutation`]
/// — the "hybrid" half of the searchable mapping family.
///
/// Pure bit permutations cannot express the paper's optimized diagonal
/// (`bank = (tile_i + tile_j) mod banks`) on standards without bank-group
/// bits (DDR3, LPDDR4); a fold of the bank field with shifted row/column
/// bits can.  Each step is a bijection on the decoded field values, so the
/// composite `permutation ∘ folds` mapping stays a bijection and keeps an
/// exact inverse (steps inverted in reverse order).
///
/// The type is `Copy` (fixed array + length), so it rides inside mapping
/// enums and hash maps exactly like [`BitPermutation`].  The textual form
/// joins step forms with `,` (`"B^R7,G+C2"`); the identity fold is the
/// empty string.
///
/// # Examples
///
/// ```
/// use tbi_dram::{AddressField, FoldOp, FoldStep, XorFold};
///
/// let fold = XorFold::new(&[FoldStep {
///     target: AddressField::Bank,
///     source: AddressField::Row,
///     shift: 7,
///     op: FoldOp::Xor,
/// }])?;
/// assert_eq!(fold.to_string(), "B^R7");
/// assert_eq!(fold.to_string().parse::<XorFold>()?, fold);
/// assert!(XorFold::identity().is_identity());
/// # Ok::<(), tbi_dram::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XorFold {
    /// Steps applied in order after decode; entries at `len..` are padding.
    steps: [FoldStep; MAX_FOLD_STEPS],
    len: u8,
}

impl XorFold {
    /// The identity fold (no steps) — plain bit-permutation behaviour.
    #[must_use]
    pub fn identity() -> Self {
        Self {
            steps: [FoldStep::PAD; MAX_FOLD_STEPS],
            len: 0,
        }
    }

    /// Creates a fold from `steps`, applied in order.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] if there are more than
    /// [`MAX_FOLD_STEPS`] steps or any step folds a field with itself
    /// (which would not be a bijection).
    pub fn new(steps: &[FoldStep]) -> Result<Self, ConfigError> {
        if steps.len() > MAX_FOLD_STEPS {
            return Err(ConfigError::InvalidGeometry {
                field: "fold",
                reason: format!("at most {MAX_FOLD_STEPS} fold steps, got {}", steps.len()),
            });
        }
        for step in steps {
            if step.target == step.source {
                return Err(ConfigError::InvalidGeometry {
                    field: "fold",
                    reason: format!("step {step} folds a field with itself"),
                });
            }
        }
        let mut array = [FoldStep::PAD; MAX_FOLD_STEPS];
        array[..steps.len()].copy_from_slice(steps);
        Ok(Self {
            steps: array,
            len: steps.len() as u8,
        })
    }

    /// The steps, in application order.
    #[must_use]
    pub fn steps(&self) -> &[FoldStep] {
        &self.steps[..self.len as usize]
    }

    /// Whether this is the identity fold.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.len == 0
    }

    /// Returns a copy with `step` appended — a neighbourhood move of the
    /// portfolio search.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] when full or when the step
    /// is degenerate (see [`XorFold::new`]).
    pub fn with_step(&self, step: FoldStep) -> Result<Self, ConfigError> {
        let mut steps: Vec<FoldStep> = self.steps().to_vec();
        steps.push(step);
        Self::new(&steps)
    }

    /// Returns a copy with the last step removed (identity stays identity).
    #[must_use]
    pub fn without_last(&self) -> Self {
        let mut copy = *self;
        if copy.len > 0 {
            copy.len -= 1;
            copy.steps[copy.len as usize] = FoldStep::PAD;
        }
        copy
    }

    /// Checks the fold against `permutation`: every step's target and
    /// source must have at least one bit, and the shift must leave at
    /// least one source bit in range (otherwise the step is dead weight).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] naming the offending step.
    pub fn validate_for(&self, permutation: &BitPermutation) -> Result<(), ConfigError> {
        self.validate_widths(&permutation.field_masks().map(u64::count_ones))
    }

    /// [`XorFold::validate_for`] against per-field widths in
    /// [`AddressField::index`] order.
    fn validate_widths(&self, widths: &[u32; 6]) -> Result<(), ConfigError> {
        for step in self.steps() {
            let target_width = widths[step.target.index()];
            let source_width = widths[step.source.index()];
            if target_width == 0 || source_width == 0 {
                return Err(ConfigError::InvalidGeometry {
                    field: "fold",
                    reason: format!("step {step} touches a zero-width field"),
                });
            }
            if u32::from(step.shift) >= source_width {
                return Err(ConfigError::InvalidGeometry {
                    field: "fold",
                    reason: format!("step {step} shifts past the {source_width}-bit source field"),
                });
            }
        }
        Ok(())
    }
}

/// Textual form: step forms joined by `,`; identity is empty.
impl std::fmt::Display for XorFold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (index, step) in self.steps().iter().enumerate() {
            if index > 0 {
                f.write_str(",")?;
            }
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for XorFold {
    type Err = ConfigError;

    /// Parses the comma-joined step string emitted by `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Ok(Self::identity());
        }
        let invalid = |reason: String| ConfigError::InvalidGeometry {
            field: "fold",
            reason,
        };
        let mut steps = Vec::new();
        for part in s.split(',') {
            let mut chars = part.chars();
            let target = chars
                .next()
                .and_then(AddressField::from_code)
                .ok_or_else(|| invalid(format!("bad fold target in `{part}`")))?;
            let op = chars
                .next()
                .and_then(FoldOp::from_code)
                .ok_or_else(|| invalid(format!("bad fold operator in `{part}`")))?;
            let source = chars
                .next()
                .and_then(AddressField::from_code)
                .ok_or_else(|| invalid(format!("bad fold source in `{part}`")))?;
            let shift: u8 = chars
                .as_str()
                .parse()
                .map_err(|_| invalid(format!("bad fold shift in `{part}`")))?;
            steps.push(FoldStep {
                target,
                source,
                shift,
                op,
            });
        }
        Self::new(&steps)
    }
}

/// log2 widths of the six fields of a subsystem, in [`AddressField::index`]
/// order, once [`DeviceGeometry::validate`] and [`ChannelTopology::validate`]
/// have made every dimension a power of two.
fn field_widths(
    geometry: &DeviceGeometry,
    topology: ChannelTopology,
) -> Result<[u32; 6], ConfigError> {
    geometry.validate()?;
    topology.validate()?;
    Ok([
        topology.channels,
        topology.ranks,
        geometry.bank_groups,
        geometry.banks_per_group,
        geometry.rows,
        geometry.columns_per_row,
    ]
    .map(u32::trailing_zeros))
}

/// How a [`PermutationMapping`] extracts its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodePlan {
    /// Every field occupies one contiguous ascending bit run: six shifts and
    /// masks, exactly the cost of the classic decode chains.
    ShiftMask { shift: [u8; 6], width: [u8; 6] },
    /// Arbitrary permutation: per-field source-bit masks, gathered bit by
    /// bit (one `trailing_zeros` loop per field).
    Gather { masks: [u64; 6] },
}

impl DecodePlan {
    /// Shift/mask when `scatter` gives every field at most one contiguous
    /// run, per-field gather `masks` otherwise.
    fn for_scatter(scatter: &ScatterPlan, masks: [u64; 6]) -> Self {
        let mut shift = [0u8; 6];
        let mut width = [0u8; 6];
        for field in 0..6 {
            match scatter.field_steps(field) {
                [] => {}
                [run] => (shift[field], width[field]) = (run.src, run.width),
                _ => return DecodePlan::Gather { masks },
            }
        }
        DecodePlan::ShiftMask { shift, width }
    }
}

/// One contiguous run of linear-address bits feeding an address field:
/// `field |= ((linear >> src) & ((1 << width) - 1)) << dst`.
///
/// This is the portable (stable-Rust, u64-scalar) equivalent of one `pdep`
/// deposit step.  A field whose source bits form a single contiguous run
/// needs exactly one step; an arbitrary permutation needs one step per run,
/// and the runs of all six fields partition the covered bits, so the whole
/// decode never exceeds [`MAX_PERMUTATION_BITS`] steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ScatterStep {
    /// Source shift: position of the run's lowest bit in the linear address.
    src: u8,
    /// Destination shift: position of the run's lowest bit in the field.
    dst: u8,
    /// Run width in bits (always ≥ 1 for stored steps).
    width: u8,
}

/// Precomputed per-field scatter tables: the batched decode plan.
///
/// `ranges[field]` indexes the flat `steps` array, so the whole plan stays
/// `Copy` (no allocation) while fields own a variable number of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScatterPlan {
    steps: [ScatterStep; MAX_PERMUTATION_BITS],
    /// Per-field `[start, end)` ranges into `steps`, in
    /// [`AddressField::index`] order.
    ranges: [(u8, u8); 6],
}

impl ScatterPlan {
    /// Decomposes each field's source-bit mask into maximal contiguous runs.
    fn build(masks: &[u64; 6]) -> Self {
        let mut steps = [ScatterStep::default(); MAX_PERMUTATION_BITS];
        let mut ranges = [(0u8, 0u8); 6];
        let mut next = 0u8;
        for (field, &mask) in masks.iter().enumerate() {
            let start = next;
            let mut remaining = mask;
            let mut dst = 0u8;
            while remaining != 0 {
                let src = remaining.trailing_zeros() as u8;
                let width = (remaining >> src).trailing_ones() as u8;
                steps[next as usize] = ScatterStep { src, dst, width };
                next += 1;
                dst += width;
                remaining &= !(((1u64 << width) - 1) << src);
            }
            ranges[field] = (start, next);
        }
        Self { steps, ranges }
    }

    /// The steps of `field` (by [`AddressField::index`]).
    fn field_steps(&self, field: usize) -> &[ScatterStep] {
        let (start, end) = self.ranges[field];
        &self.steps[start as usize..end as usize]
    }

    /// Total number of steps across all six fields.
    fn segments(&self) -> u32 {
        u32::from(self.ranges.iter().map(|&(s, e)| e - s).sum::<u8>())
    }
}

/// Decodes linear burst indices through a [`BitPermutation`].
///
/// The permutation assigns every linear bit to one of (channel, rank, bank
/// group, bank, row, column): a [`DecodeScheme`]'s fixed layout
/// ([`BitPermutation::for_scheme`]) is the controller's address decoder,
/// any other assignment is a point of the searchable design space.
/// Decoding is a bijection on the covered bit width, so distinct linear
/// indices always produce distinct `(channel, address)` pairs.
///
/// # Examples
///
/// ```
/// use tbi_dram::{BitPermutation, ChannelTopology, DecodeScheme, DeviceGeometry, PermutationMapping};
///
/// let geometry = DeviceGeometry {
///     bank_groups: 4,
///     banks_per_group: 4,
///     rows: 1 << 16,
///     columns_per_row: 128,
///     burst_length: 8,
///     bus_width_bits: 64,
/// };
/// let topology = ChannelTopology::new(2, 1);
/// let scheme = DecodeScheme::RowColumnBankBankGroup;
/// let permutation = BitPermutation::for_scheme(scheme, &geometry, topology)?;
/// let mapping = PermutationMapping::new(geometry, topology, permutation)?;
/// // The channel bit sits at the bottom, the bank-group bits right above it.
/// let (c0, a0) = mapping.decode(0);
/// let (c1, a1) = mapping.decode(1);
/// let (c2, a2) = mapping.decode(2);
/// assert_eq!((c0, c1, c2), (0, 1, 0));
/// assert_eq!((a0.bank_group, a1.bank_group, a2.bank_group), (0, 0, 1));
/// assert_eq!(mapping.encode(c2, a2), 2);
/// # Ok::<(), tbi_dram::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermutationMapping {
    geometry: DeviceGeometry,
    topology: ChannelTopology,
    permutation: BitPermutation,
    plan: DecodePlan,
    scatter: ScatterPlan,
    /// Field folds applied after decode (identity for plain permutations).
    fold: XorFold,
    /// Precomputed `2^width(target) - 1` per fold step.
    fold_masks: [u32; MAX_FOLD_STEPS],
}

impl PermutationMapping {
    /// Creates a mapping for `permutation` on `geometry` scaled out to
    /// `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] if the geometry or the
    /// topology fails its `validate` or the permutation's field widths do
    /// not match the subsystem.
    pub fn new(
        geometry: DeviceGeometry,
        topology: ChannelTopology,
        permutation: BitPermutation,
    ) -> Result<Self, ConfigError> {
        Self::with_fold(geometry, topology, permutation, XorFold::identity())
    }

    /// The controller's address decoder for `scheme` on `geometry` scaled
    /// out to `topology`: [`PermutationMapping::new`] of
    /// [`BitPermutation::for_scheme`], built straight from the field
    /// widths.
    ///
    /// # Errors
    ///
    /// As [`BitPermutation::for_scheme`].
    pub fn for_scheme(
        scheme: DecodeScheme,
        geometry: DeviceGeometry,
        topology: ChannelTopology,
    ) -> Result<Self, ConfigError> {
        let (permutation, masks) = scheme_layout(scheme, &geometry, topology)?;
        let identity = XorFold::identity();
        Ok(Self::from_masks(
            geometry,
            topology,
            permutation,
            masks,
            identity,
        ))
    }

    /// Creates a mapping that applies `fold` to the decoded field values of
    /// `permutation` — the hybrid permutation+fold family.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] if the permutation does not
    /// fit the subsystem (see [`PermutationMapping::new`]) or the fold
    /// touches a zero-width field / shifts past its source (see
    /// [`XorFold::validate_for`]).
    pub fn with_fold(
        geometry: DeviceGeometry,
        topology: ChannelTopology,
        permutation: BitPermutation,
        fold: XorFold,
    ) -> Result<Self, ConfigError> {
        // One scan of the permutation yields every field's bits; the
        // validation, the fold widths and both decode plans derive from it.
        let masks = permutation.field_masks();
        check_widths(&masks, &geometry, topology)?;
        fold.validate_widths(&masks.map(u64::count_ones))?;
        Ok(Self::from_masks(
            geometry,
            topology,
            permutation,
            masks,
            fold,
        ))
    }

    /// Assembles a mapping from its field `masks`; the permutation and the
    /// fold are already validated against the subsystem.
    fn from_masks(
        geometry: DeviceGeometry,
        topology: ChannelTopology,
        permutation: BitPermutation,
        masks: [u64; 6],
        fold: XorFold,
    ) -> Self {
        let mut fold_masks = [0u32; MAX_FOLD_STEPS];
        for (index, step) in fold.steps().iter().enumerate() {
            fold_masks[index] = (1u32 << masks[step.target.index()].count_ones()) - 1;
        }
        let scatter = ScatterPlan::build(&masks);
        Self {
            geometry,
            topology,
            permutation,
            plan: DecodePlan::for_scatter(&scatter, masks),
            scatter,
            fold,
            fold_masks,
        }
    }

    /// The permutation this mapping decodes through.
    #[must_use]
    pub fn permutation(&self) -> &BitPermutation {
        &self.permutation
    }

    /// The fold applied after decode (identity for plain permutations).
    #[must_use]
    pub fn fold(&self) -> &XorFold {
        &self.fold
    }

    /// The device geometry of one rank of one channel.
    #[must_use]
    pub fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    /// The channel/rank topology the permutation spans.
    #[must_use]
    pub fn topology(&self) -> ChannelTopology {
        self.topology
    }

    /// Whether decoding takes the shift/mask fast path (true whenever every
    /// field occupies a contiguous bit run — all three classic schemes do).
    #[must_use]
    pub fn is_shift_mask(&self) -> bool {
        matches!(self.plan, DecodePlan::ShiftMask { .. })
    }

    /// Decodes a linear burst index into `(channel, address)`.
    ///
    /// Bits above [`BitPermutation::total_bits`] are ignored: indices beyond
    /// the subsystem's capacity wrap around.
    #[must_use]
    pub fn decode(&self, linear: u64) -> (u32, PhysicalAddress) {
        let mut fields = match self.plan {
            DecodePlan::ShiftMask { shift, width } => {
                let mut out = [0u32; 6];
                for index in 0..6 {
                    out[index] = ((linear >> shift[index]) & ((1u64 << width[index]) - 1)) as u32;
                }
                out
            }
            DecodePlan::Gather { masks } => {
                let mut out = [0u32; 6];
                for (index, &mask) in masks.iter().enumerate() {
                    let mut remaining = mask;
                    let mut value = 0u64;
                    let mut dst = 0u32;
                    while remaining != 0 {
                        let src = remaining.trailing_zeros();
                        value |= ((linear >> src) & 1) << dst;
                        dst += 1;
                        remaining &= remaining - 1;
                    }
                    out[index] = value as u32;
                }
                out
            }
        };
        for (index, step) in self.fold.steps().iter().enumerate() {
            let mask = self.fold_masks[index];
            let value = (fields[step.source.index()] >> step.shift) & mask;
            let target = &mut fields[step.target.index()];
            *target = match step.op {
                FoldOp::Xor => *target ^ value,
                FoldOp::Add => target.wrapping_add(value) & mask,
            };
        }
        (
            fields[AddressField::Channel.index()],
            PhysicalAddress {
                rank: fields[AddressField::Rank.index()],
                bank_group: fields[AddressField::BankGroup.index()],
                bank: fields[AddressField::Bank.index()],
                row: fields[AddressField::Row.index()],
                column: fields[AddressField::Column.index()],
            },
        )
    }

    /// Number of scatter steps (contiguous source-bit runs summed over all
    /// six fields) the batched decode executes per element.
    ///
    /// This is a deterministic instruction-count proxy: a contiguous
    /// permutation costs one step per non-empty field (exactly the classic
    /// shift/mask chains), and every extra run added by bit swaps costs one
    /// more shift/mask/OR.  The `mapgen_speed` benchmark records it so
    /// mapping-kernel regressions are caught without wall-clock noise.
    #[must_use]
    pub fn scatter_segments(&self) -> u32 {
        self.scatter.segments()
    }

    /// Decodes a slice of linear burst indices into per-field lanes, one
    /// tight shift/mask/OR loop per scatter step (see
    /// [`PermutationMapping::decode_batch`]).
    ///
    /// Lanes a field does not cover are zeroed.  Results are bit-identical
    /// to per-element [`PermutationMapping::decode`].
    ///
    /// # Panics
    ///
    /// Panics if any lane length differs from `linear.len()`.
    pub fn decode_slice(&self, linear: &[u64], lanes: AddressLanesMut<'_>) {
        let AddressLanesMut {
            channel,
            rank,
            bank_group,
            bank,
            row,
            column,
        } = lanes;
        let mut out = [channel, rank, bank_group, bank, row, column];
        for (field, lane) in out.iter_mut().enumerate() {
            assert_eq!(lane.len(), linear.len(), "lane length mismatch");
            let mut steps = self.scatter.field_steps(field).iter();
            match steps.next() {
                None => lane.fill(0),
                Some(first) => {
                    // First run assigns (no dependency on prior lane
                    // contents), later runs OR in — each a straight-line
                    // loop over the slice that the compiler vectorizes.
                    let mask = (1u64 << first.width) - 1;
                    for (value, &l) in lane.iter_mut().zip(linear) {
                        *value = (((l >> first.src) & mask) as u32) << first.dst;
                    }
                    for step in steps {
                        let mask = (1u64 << step.width) - 1;
                        for (value, &l) in lane.iter_mut().zip(linear) {
                            *value |= (((l >> step.src) & mask) as u32) << step.dst;
                        }
                    }
                }
            }
        }
        // Fold passes: one straight-line loop per step over the target
        // lane, reading the (distinct) source lane — still vectorizable.
        for (index, step) in self.fold.steps().iter().enumerate() {
            let mask = self.fold_masks[index];
            let shift = u32::from(step.shift);
            let (ti, si) = (step.target.index(), step.source.index());
            let (target_lane, source_lane): (&mut [u32], &[u32]) = if ti < si {
                let (low, high) = out.split_at_mut(si);
                (&mut *low[ti], &*high[0])
            } else {
                let (low, high) = out.split_at_mut(ti);
                (&mut *high[0], &*low[si])
            };
            match step.op {
                FoldOp::Xor => {
                    for (target, &source) in target_lane.iter_mut().zip(source_lane) {
                        *target ^= (source >> shift) & mask;
                    }
                }
                FoldOp::Add => {
                    for (target, &source) in target_lane.iter_mut().zip(source_lane) {
                        *target = target.wrapping_add((source >> shift) & mask) & mask;
                    }
                }
            }
        }
    }

    /// Appends the decoded `(channel, address)` tuples of `linear` to `out`
    /// — the batched form of [`PermutationMapping::decode`].
    ///
    /// Instead of the scalar gather path's per-bit `trailing_zeros` loop,
    /// this runs the precomputed scatter table: one shift/mask/OR pass over
    /// the whole slice per contiguous source-bit run
    /// ([`PermutationMapping::scatter_segments`] passes in total), writing
    /// each output field as a separate structure-of-arrays lane.
    ///
    /// # Examples
    ///
    /// ```
    /// use tbi_dram::{
    ///     AddressBatch, BitPermutation, ChannelTopology, DecodeScheme, DeviceGeometry,
    ///     PermutationMapping,
    /// };
    ///
    /// let geometry = DeviceGeometry {
    ///     bank_groups: 4,
    ///     banks_per_group: 4,
    ///     rows: 1 << 16,
    ///     columns_per_row: 128,
    ///     burst_length: 8,
    ///     bus_width_bits: 64,
    /// };
    /// let permutation = BitPermutation::for_scheme(
    ///     DecodeScheme::RowColumnBankBankGroup,
    ///     &geometry,
    ///     ChannelTopology::default(),
    /// )?;
    /// let mapping = PermutationMapping::new(geometry, ChannelTopology::default(), permutation)?;
    /// let linear: Vec<u64> = (0..64).collect();
    /// let mut batch = AddressBatch::new();
    /// mapping.decode_batch(&linear, &mut batch);
    /// assert_eq!(batch.len(), 64);
    /// for (k, &l) in linear.iter().enumerate() {
    ///     assert_eq!(batch.get(k), mapping.decode(l));
    /// }
    /// # Ok::<(), tbi_dram::ConfigError>(())
    /// ```
    pub fn decode_batch(&self, linear: &[u64], out: &mut AddressBatch) {
        out.append_with(linear.len(), |lanes| self.decode_slice(linear, lanes));
    }

    /// Encodes a `(channel, address)` pair back into its linear burst index
    /// — the exact inverse of [`PermutationMapping::decode`] for in-range
    /// components.
    #[must_use]
    pub fn encode(&self, channel: u32, address: PhysicalAddress) -> u64 {
        let mut values = [
            u64::from(channel),
            u64::from(address.rank),
            u64::from(address.bank_group),
            u64::from(address.bank),
            u64::from(address.row),
            u64::from(address.column),
        ];
        // Undo the folds in reverse order: XOR is self-inverse, ADD inverts
        // by modular subtraction.  Each step's source field is unchanged by
        // that step, so its decoded value is already available.
        for (index, step) in self.fold.steps().iter().enumerate().rev() {
            let mask = u64::from(self.fold_masks[index]);
            let value = (values[step.source.index()] >> step.shift) & mask;
            let target = &mut values[step.target.index()];
            *target = match step.op {
                FoldOp::Xor => *target ^ value,
                FoldOp::Add => target.wrapping_add(mask + 1 - value) & mask,
            };
        }
        let mut taken = [0u32; 6];
        let mut linear = 0u64;
        for (bit, field) in self.permutation.fields().iter().enumerate() {
            let index = field.index();
            linear |= ((values[index] >> taken[index]) & 1) << bit;
            taken[index] += 1;
        }
        linear
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standards::{DramConfig, ALL_CONFIGS, MODERN_CONFIGS};
    use proptest::prelude::*;

    fn geometry() -> DeviceGeometry {
        DeviceGeometry {
            bank_groups: 4,
            banks_per_group: 4,
            rows: 1 << 10,
            columns_per_row: 128,
            burst_length: 8,
            bus_width_bits: 64,
        }
    }

    /// FNV-1a over the `(channel, rank, bank group, bank, row, column)`
    /// decodes of `linear`, continuing from `hash`.
    fn fnv_decodes(
        mut hash: u64,
        mapping: &PermutationMapping,
        linear: impl Iterator<Item = u64>,
    ) -> u64 {
        for l in linear {
            let (channel, a) = mapping.decode(l);
            for value in [channel, a.rank, a.bank_group, a.bank, a.row, a.column] {
                hash = (hash ^ u64::from(value)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }

    /// Topologies folded into each golden hash, in hashing order.
    const GOLDEN_TOPOLOGIES: [(u32, u32); 5] = [(1, 1), (1, 2), (2, 1), (4, 2), (8, 1)];

    /// Per preset, one hash per [`DecodeScheme::ALL`] entry over
    /// [`GOLDEN_TOPOLOGIES`]: linear indices `0..65_536` and the last 4,096
    /// below the subsystem's capacity.  Recorded from the classic
    /// divide-and-splice controller decoder (`channel = linear mod C`, the
    /// per-channel index sliced in scheme order with the rank bits above
    /// the bank bits), which the scheme permutations replaced.
    #[rustfmt::skip]
    const SCHEME_DECODE_GOLDEN: [(&str, [u64; 3]); 16] = [
        ("DDR3-800", [0xeacbe980484cc125, 0xe45fa2e0f0de1925, 0xa8bf26e422aa0725]),
        ("DDR3-1600", [0xeacbe980484cc125, 0xe45fa2e0f0de1925, 0xa8bf26e422aa0725]),
        ("DDR4-1600", [0xe6461ad029f31025, 0x3b512a03d817ef25, 0x041aa4d67eb91925]),
        ("DDR4-3200", [0xe6461ad029f31025, 0x3b512a03d817ef25, 0x041aa4d67eb91925]),
        ("DDR5-3200", [0x0a324780a127b425, 0x1f68a5b171ae98a5, 0x157d8b5de1e9dea5]),
        ("DDR5-6400", [0x0a324780a127b425, 0x1f68a5b171ae98a5, 0x157d8b5de1e9dea5]),
        ("LPDDR4-2133", [0x0242d0438db1ef25, 0xe3bd3bbbb32a8e25, 0x579f2501ef254fa5]),
        ("LPDDR4-4266", [0x0242d0438db1ef25, 0xe3bd3bbbb32a8e25, 0x579f2501ef254fa5]),
        ("LPDDR5-4267", [0x9a47f755ccab9b25, 0xc1e6dfbf12c80725, 0xd531f4db1ed41025]),
        ("LPDDR5-8533", [0x9a47f755ccab9b25, 0xc1e6dfbf12c80725, 0xd531f4db1ed41025]),
        ("HBM2-2000", [0x7434d967bdf99b25, 0x7b38e1e865360725, 0x8b63cffe3a811025]),
        ("HBM2-2400", [0x7434d967bdf99b25, 0x7b38e1e865360725, 0x8b63cffe3a811025]),
        ("GDDR6-14000", [0x7434d967bdf99b25, 0x7b38e1e865360725, 0x8b63cffe3a811025]),
        ("GDDR6-16000", [0x7434d967bdf99b25, 0x7b38e1e865360725, 0x8b63cffe3a811025]),
        ("DDR5-3DS-4800", [0x0a324780a127b425, 0x1f68a5b171ae98a5, 0x157d8b5de1e9dea5]),
        ("DDR5-3DS-6400", [0x0a324780a127b425, 0x1f68a5b171ae98a5, 0x157d8b5de1e9dea5]),
    ];

    #[test]
    fn scheme_permutations_decode_the_recorded_golden_on_all_presets() {
        let presets = ALL_CONFIGS.iter().chain(MODERN_CONFIGS);
        for (&(standard, rate), (label, expected)) in presets.zip(SCHEME_DECODE_GOLDEN) {
            let config = DramConfig::preset(standard, rate).unwrap();
            assert_eq!(config.label(), label);
            for (scheme, expected) in DecodeScheme::ALL.into_iter().zip(expected) {
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                for (channels, ranks) in GOLDEN_TOPOLOGIES {
                    let topology = ChannelTopology::new(channels, ranks);
                    let permutation =
                        BitPermutation::for_scheme(scheme, &config.geometry, topology).unwrap();
                    let mapping =
                        PermutationMapping::new(config.geometry, topology, permutation).unwrap();
                    assert!(mapping.is_shift_mask(), "schemes are contiguous runs");
                    assert_eq!(
                        PermutationMapping::for_scheme(scheme, config.geometry, topology),
                        Ok(mapping),
                        "the width-filled constructor builds the same decoder"
                    );
                    let capacity = config.geometry.total_bursts() * u64::from(topology.units());
                    hash = fnv_decodes(
                        hash,
                        &mapping,
                        (0..65_536).chain(capacity - 4_096..capacity),
                    );
                    for linear in 0..2_048 {
                        let (channel, address) = mapping.decode(linear);
                        assert_eq!(mapping.encode(channel, address), linear);
                    }
                }
                assert_eq!(hash, expected, "{label} {scheme:?}");
            }
        }
    }

    #[test]
    fn channel_bits_splice_at_the_bottom() {
        let scheme = DecodeScheme::RowColumnBankBankGroup;
        let one_channel = |ranks: u32| {
            let topology = ChannelTopology::new(1, ranks);
            let permutation = BitPermutation::for_scheme(scheme, &geometry(), topology).unwrap();
            PermutationMapping::new(geometry(), topology, permutation).unwrap()
        };
        for (channels, ranks) in [(2u32, 1u32), (4, 1), (2, 2)] {
            let topology = ChannelTopology::new(channels, ranks);
            let permutation = BitPermutation::for_scheme(scheme, &geometry(), topology).unwrap();
            let mapping = PermutationMapping::new(geometry(), topology, permutation).unwrap();
            let per_channel = one_channel(ranks);
            for linear in 0..10_000u64 {
                let (channel, address) = mapping.decode(linear);
                assert_eq!(channel, (linear % u64::from(channels)) as u32);
                assert_eq!(
                    (0, address),
                    per_channel.decode(linear / u64::from(channels))
                );
            }
        }
    }

    #[test]
    fn gather_plan_is_selected_for_non_contiguous_permutations() {
        let scheme = DecodeScheme::RowColumnBankBankGroup;
        let base =
            BitPermutation::for_scheme(scheme, &geometry(), ChannelTopology::default()).unwrap();
        // Swapping a bank-group bit with a row bit breaks both runs.
        let swapped = base.with_swap(0, base.total_bits() as usize - 1);
        let mapping =
            PermutationMapping::new(geometry(), ChannelTopology::default(), swapped).unwrap();
        assert!(!mapping.is_shift_mask());
        // Still a bijection with a working inverse.
        let mut seen = std::collections::HashSet::new();
        for linear in 0..4_096u64 {
            let (channel, address) = mapping.decode(linear);
            assert!(seen.insert((channel, address)), "collision at {linear}");
            assert_eq!(mapping.encode(channel, address), linear);
        }
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let permutation = BitPermutation::for_scheme(
            DecodeScheme::RowBankBankGroupColumn,
            &geometry(),
            ChannelTopology::new(2, 2),
        )
        .unwrap();
        let text = permutation.to_string();
        assert_eq!(text.len() as u32, permutation.total_bits());
        let parsed: BitPermutation = text.parse().unwrap();
        assert_eq!(parsed, permutation);
        assert!(text.starts_with('R'), "rows are the top bits: {text}");
        assert!(
            text.ends_with('H'),
            "channel bits sit at the bottom: {text}"
        );
    }

    #[test]
    fn from_str_rejects_unknown_codes() {
        let err = "RRXC".parse::<BitPermutation>().unwrap_err();
        assert!(err.to_string().contains('X'), "{err}");
        assert!("".parse::<BitPermutation>().is_err());
    }

    #[test]
    fn validate_rejects_width_mismatches_and_non_pow2() {
        let scheme = DecodeScheme::RowColumnBankBankGroup;
        let permutation =
            BitPermutation::for_scheme(scheme, &geometry(), ChannelTopology::default()).unwrap();
        // Wrong topology: the permutation has no rank bits.
        assert!(permutation
            .validate_for(&geometry(), ChannelTopology::new(1, 2))
            .is_err());
        // Non-pow2 geometry cannot be bit-sliced at all.
        let mut odd = geometry();
        odd.rows = 1000;
        assert!(BitPermutation::for_scheme(scheme, &odd, ChannelTopology::default()).is_err());
        assert!(permutation
            .validate_for(&odd, ChannelTopology::default())
            .is_err());
    }

    #[test]
    fn swap_is_an_involution_and_bounds_checked() {
        let permutation = BitPermutation::for_scheme(
            DecodeScheme::RowColumnBankBankGroup,
            &geometry(),
            ChannelTopology::default(),
        )
        .unwrap();
        assert_eq!(permutation.with_swap(2, 9).with_swap(2, 9), permutation);
        let result = std::panic::catch_unwind(|| permutation.with_swap(0, 64));
        assert!(result.is_err(), "out-of-range swap must panic");
    }

    #[test]
    fn field_codes_are_unique_and_round_trip() {
        let codes: std::collections::HashSet<char> =
            AddressField::ALL.iter().map(|f| f.code()).collect();
        assert_eq!(codes.len(), AddressField::ALL.len());
        for field in AddressField::ALL {
            assert_eq!(AddressField::from_code(field.code()), Some(field));
            assert_eq!(
                AddressField::from_code(field.code().to_ascii_lowercase()),
                Some(field)
            );
        }
        assert_eq!(AddressField::from_code('x'), None);
    }

    #[test]
    fn scatter_segments_count_runs_per_field() {
        // A contiguous scheme permutation has exactly one run per non-empty
        // field; single-channel single-rank leaves channel/rank empty.
        let scheme = DecodeScheme::RowColumnBankBankGroup;
        let contiguous =
            BitPermutation::for_scheme(scheme, &geometry(), ChannelTopology::default()).unwrap();
        let mapping =
            PermutationMapping::new(geometry(), ChannelTopology::default(), contiguous).unwrap();
        assert_eq!(mapping.scatter_segments(), 4);
        // Swapping the bottom bit (bank group) with the top bit (row) splits
        // both fields' runs: bank group 1 -> 2 runs, row 1 -> 2 runs.
        let swapped = contiguous.with_swap(0, contiguous.total_bits() as usize - 1);
        let mapping =
            PermutationMapping::new(geometry(), ChannelTopology::default(), swapped).unwrap();
        assert!(!mapping.is_shift_mask());
        assert_eq!(mapping.scatter_segments(), 6);
    }

    #[test]
    fn decode_batch_matches_scalar_decode_for_contiguous_and_gather_plans() {
        let scheme = DecodeScheme::RowColumnBankBankGroup;
        let topology = ChannelTopology::new(2, 2);
        let base = BitPermutation::for_scheme(scheme, &geometry(), topology).unwrap();
        let bits = base.total_bits() as usize;
        // Progressively shuffle: 0 swaps keeps the shift/mask plan, the rest
        // exercise increasingly fragmented scatter tables.
        let variants = [
            base,
            base.with_swap(0, bits - 1),
            base.with_swap(1, 7).with_swap(3, bits - 2).with_swap(0, 9),
        ];
        for permutation in variants {
            let mapping = PermutationMapping::new(geometry(), topology, permutation).unwrap();
            let linear: Vec<u64> = (0..4096u64)
                .chain((1 << 20)..(1 << 20) + 512)
                .chain([u64::MAX, (1 << bits) - 1, 1 << (bits - 1)])
                .collect();
            let mut batch = crate::batch::AddressBatch::new();
            mapping.decode_batch(&linear, &mut batch);
            assert_eq!(batch.len(), linear.len());
            for (k, &l) in linear.iter().enumerate() {
                assert_eq!(
                    batch.get(k),
                    mapping.decode(l),
                    "{permutation} diverged at linear={l}"
                );
            }
        }
    }

    #[test]
    fn decode_batch_appends_after_existing_contents() {
        let scheme = DecodeScheme::RowColumnBankBankGroup;
        let permutation =
            BitPermutation::for_scheme(scheme, &geometry(), ChannelTopology::default()).unwrap();
        let mapping =
            PermutationMapping::new(geometry(), ChannelTopology::default(), permutation).unwrap();
        let mut batch = crate::batch::AddressBatch::new();
        let sentinel = PhysicalAddress::new(3, 3, 7, 7);
        batch.push(9, sentinel);
        mapping.decode_batch(&[5, 6], &mut batch);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0), (9, sentinel));
        assert_eq!(batch.get(1), mapping.decode(5));
        assert_eq!(batch.get(2), mapping.decode(6));
    }

    #[test]
    fn fold_display_round_trips_and_rejects_degenerates() {
        let fold = XorFold::new(&[
            FoldStep {
                target: AddressField::Bank,
                source: AddressField::Row,
                shift: 7,
                op: FoldOp::Xor,
            },
            FoldStep {
                target: AddressField::BankGroup,
                source: AddressField::Column,
                shift: 2,
                op: FoldOp::Add,
            },
        ])
        .unwrap();
        assert_eq!(fold.to_string(), "B^R7,G+C2");
        assert_eq!(fold.to_string().parse::<XorFold>().unwrap(), fold);
        assert_eq!("".parse::<XorFold>().unwrap(), XorFold::identity());
        assert_eq!(fold.without_last().to_string(), "B^R7");
        assert_eq!(
            XorFold::identity().without_last(),
            XorFold::identity(),
            "identity stays identity"
        );
        // Self-fold is rejected, as is overflowing the step budget.
        let degenerate = FoldStep {
            target: AddressField::Row,
            source: AddressField::Row,
            shift: 0,
            op: FoldOp::Xor,
        };
        assert!(XorFold::new(&[degenerate]).is_err());
        let step = fold.steps()[0];
        assert!(XorFold::new(&[step; MAX_FOLD_STEPS + 1]).is_err());
        assert!("B?R7".parse::<XorFold>().is_err());
        assert!("B^Rx".parse::<XorFold>().is_err());
    }

    #[test]
    fn fold_validation_rejects_zero_width_fields_and_long_shifts() {
        let permutation = BitPermutation::for_scheme(
            DecodeScheme::RowColumnBankBankGroup,
            &geometry(),
            ChannelTopology::default(),
        )
        .unwrap();
        // No rank bits in a single-rank subsystem.
        let rank_fold = XorFold::new(&[FoldStep {
            target: AddressField::Rank,
            source: AddressField::Row,
            shift: 0,
            op: FoldOp::Xor,
        }])
        .unwrap();
        assert!(rank_fold.validate_for(&permutation).is_err());
        // Shift past the 10-bit row field.
        let long_shift = XorFold::new(&[FoldStep {
            target: AddressField::Bank,
            source: AddressField::Row,
            shift: 10,
            op: FoldOp::Xor,
        }])
        .unwrap();
        assert!(long_shift.validate_for(&permutation).is_err());
        assert!(PermutationMapping::with_fold(
            geometry(),
            ChannelTopology::default(),
            permutation,
            long_shift
        )
        .is_err());
    }

    #[test]
    fn folded_mappings_are_bijective_with_exact_inverse_for_both_ops() {
        let permutation = BitPermutation::for_scheme(
            DecodeScheme::RowColumnBankBankGroup,
            &geometry(),
            ChannelTopology::default(),
        )
        .unwrap();
        for op in [FoldOp::Xor, FoldOp::Add] {
            let fold = XorFold::new(&[
                FoldStep {
                    target: AddressField::Bank,
                    source: AddressField::Row,
                    shift: 1,
                    op,
                },
                FoldStep {
                    target: AddressField::BankGroup,
                    source: AddressField::Column,
                    shift: 3,
                    op,
                },
            ])
            .unwrap();
            let mapping = PermutationMapping::with_fold(
                geometry(),
                ChannelTopology::default(),
                permutation,
                fold,
            )
            .unwrap();
            let plain =
                PermutationMapping::new(geometry(), ChannelTopology::default(), permutation)
                    .unwrap();
            let mut seen = std::collections::HashSet::new();
            let mut diverged = false;
            for linear in 0..8_192u64 {
                let (channel, address) = mapping.decode(linear);
                assert!(
                    address.is_valid_for_ranks(mapping.geometry(), 1),
                    "{op:?} out of range at {linear}"
                );
                assert!(
                    seen.insert((channel, address)),
                    "{op:?} collision at {linear}"
                );
                assert_eq!(mapping.encode(channel, address), linear, "{op:?} inverse");
                diverged |= mapping.decode(linear) != plain.decode(linear);
            }
            assert!(diverged, "{op:?} fold must actually change the mapping");
        }
    }

    #[test]
    fn add_fold_expresses_the_additive_diagonal() {
        // bank' = (bank + row) mod banks: the optimized scheme's diagonal
        // term, inexpressible as a pure bit permutation.
        let permutation = BitPermutation::for_scheme(
            DecodeScheme::RowColumnBankBankGroup,
            &geometry(),
            ChannelTopology::default(),
        )
        .unwrap();
        let fold = XorFold::new(&[FoldStep {
            target: AddressField::Bank,
            source: AddressField::Row,
            shift: 0,
            op: FoldOp::Add,
        }])
        .unwrap();
        let mapping = PermutationMapping::with_fold(
            geometry(),
            ChannelTopology::default(),
            permutation,
            fold,
        )
        .unwrap();
        let plain =
            PermutationMapping::new(geometry(), ChannelTopology::default(), permutation).unwrap();
        for linear in 0..50_000u64 {
            let (_, folded) = mapping.decode(linear);
            let (_, base) = plain.decode(linear);
            assert_eq!(folded.bank, (base.bank + base.row) % 4, "at {linear}");
            assert_eq!(folded.row, base.row);
            assert_eq!(folded.column, base.column);
        }
    }

    #[test]
    fn folded_decode_batch_matches_scalar_decode() {
        let topology = ChannelTopology::new(2, 2);
        let base =
            BitPermutation::for_scheme(DecodeScheme::RowColumnBankBankGroup, &geometry(), topology)
                .unwrap();
        let bits = base.total_bits() as usize;
        let fold: XorFold = "B+R2,G^C1,K^R0,H+C0".parse().unwrap();
        for permutation in [base, base.with_swap(0, bits - 1)] {
            let mapping =
                PermutationMapping::with_fold(geometry(), topology, permutation, fold).unwrap();
            let linear: Vec<u64> = (0..4_096u64)
                .chain([u64::MAX, (1 << bits) - 1, 1 << (bits - 1)])
                .collect();
            let mut batch = crate::batch::AddressBatch::new();
            mapping.decode_batch(&linear, &mut batch);
            assert_eq!(batch.len(), linear.len());
            for (k, &l) in linear.iter().enumerate() {
                assert_eq!(
                    batch.get(k),
                    mapping.decode(l),
                    "{permutation}|{fold} diverged at linear={l}"
                );
            }
        }
    }

    proptest! {
        /// Any random permutation of the subsystem's bits decodes as a
        /// bijection whose inverse is `encode`, and the gather plan always
        /// agrees with a shift/mask plan derived by sorting the same widths.
        #[test]
        fn random_permutations_are_bijective(seed in 0u64..u64::MAX, swaps in 0usize..32) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut permutation = BitPermutation::for_scheme(
                DecodeScheme::RowColumnBankBankGroup,
                &geometry(),
                ChannelTopology::new(2, 2),
            )
            .unwrap();
            let bits = permutation.total_bits() as usize;
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..swaps {
                let a = rng.gen_range(0..bits);
                let b = rng.gen_range(0..bits);
                permutation = permutation.with_swap(a, b);
            }
            let mapping =
                PermutationMapping::new(geometry(), ChannelTopology::new(2, 2), permutation)
                    .unwrap();
            let mut seen = std::collections::HashSet::new();
            for linear in 0..2_048u64 {
                let (channel, address) = mapping.decode(linear);
                prop_assert!(channel < 2);
                prop_assert!(address.is_valid_for_ranks(mapping.geometry(), 2));
                prop_assert!(seen.insert((channel, address)));
                prop_assert_eq!(mapping.encode(channel, address), linear);
            }
        }
    }
}
