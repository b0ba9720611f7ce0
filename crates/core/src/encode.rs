//! Call-signature byte encoding (paper §3.3).
//!
//! A call signature is the function id followed by every argument in an
//! order- and content-preserving binary form. Opaque handles arrive here
//! already re-encoded as symbolic ids by the tracer; ranks may be stored
//! relative to the caller (§3.4.2). The encoding is self-describing — each
//! value carries a tag byte — so [`decode_signature`] recovers the full
//! argument list, which is what makes the trace (near) lossless.

use mpi_sim::funcs::ArgView;
use pilgrim_sequitur::{read_varint, write_varint};

/// Marker values for special ranks.
const RANK_REL: u8 = 0;
const RANK_ABS: u8 = 1;
const RANK_ANY: u8 = 2;
const RANK_NULL: u8 = 3;

/// Encoder configuration (the paper's optimizations, individually
/// switchable for the ablation experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Encode src/dst/status-source ranks relative to the caller (§3.4.2).
    pub relative_ranks: bool,
    /// Also encode tag/color/key relative to the caller.
    pub relative_aux: bool,
    /// Store pointer offsets in addition to segment ids (§3.3.3).
    pub pointer_offsets: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig { relative_ranks: true, relative_aux: false, pointer_offsets: true }
    }
}

impl EncoderConfig {
    /// Starts from the defaults; chain the builder methods to customize.
    pub fn new() -> Self {
        Self::default()
    }

    /// Toggles relative rank encoding (§3.4.2).
    pub fn relative_ranks(mut self, on: bool) -> Self {
        self.relative_ranks = on;
        self
    }

    /// Toggles relative tag/color/key encoding.
    pub fn relative_aux(mut self, on: bool) -> Self {
        self.relative_aux = on;
        self
    }

    /// Toggles pointer-offset capture (§3.3.3).
    pub fn pointer_offsets(mut self, on: bool) -> Self {
        self.pointer_offsets = on;
        self
    }

    /// Packs the configuration into a byte for the trace header.
    pub fn to_byte(self) -> u8 {
        (self.relative_ranks as u8)
            | (self.relative_aux as u8) << 1
            | (self.pointer_offsets as u8) << 2
    }

    /// Inverse of [`EncoderConfig::to_byte`].
    pub fn from_byte(b: u8) -> Self {
        EncoderConfig {
            relative_ranks: b & 1 != 0,
            relative_aux: b & 2 != 0,
            pointer_offsets: b & 4 != 0,
        }
    }
}

/// Value tags in the signature stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum ValTag {
    Int = 0,
    Rank = 1,
    Tag = 2,
    Comm = 3,
    Datatype = 4,
    Op = 5,
    Group = 6,
    Request = 7,
    RequestArr = 8,
    Ptr = 9,
    Status = 10,
    StatusArr = 11,
    IntArr = 12,
    Color = 13,
    Key = 14,
    Str = 15,
}

impl ValTag {
    fn from_u8(b: u8) -> Option<ValTag> {
        use ValTag::*;
        Some(match b {
            0 => Int,
            1 => Rank,
            2 => Tag,
            3 => Comm,
            4 => Datatype,
            5 => Op,
            6 => Group,
            7 => Request,
            8 => RequestArr,
            9 => Ptr,
            10 => Status,
            11 => StatusArr,
            12 => IntArr,
            13 => Color,
            14 => Key,
            15 => Str,
            _ => return None,
        })
    }
}

#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A decoded rank value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankCode {
    /// Stored relative to the caller's rank in the communicator.
    Relative(i64),
    /// Stored as an absolute rank.
    Absolute(i64),
    AnySource,
    ProcNull,
}

impl RankCode {
    /// Recovers the absolute rank given the caller's rank (for relative
    /// codes); wildcards map to the MPI constants.
    pub fn absolutize(self, caller_rank: i64) -> i64 {
        match self {
            RankCode::Relative(d) => caller_rank + d,
            RankCode::Absolute(r) => r,
            RankCode::AnySource => -1,
            RankCode::ProcNull => -2,
        }
    }
}

/// A decoded signature value (mirrors `mpi_sim::Arg` post-encoding).
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedArg {
    Int(i64),
    Rank(RankCode),
    Tag(i64),
    Comm(u64),
    Datatype(u64),
    Op(u32),
    Group(u64),
    Request(u64),
    /// `None` entries are `MPI_REQUEST_NULL`.
    RequestArr(Vec<Option<u64>>),
    Ptr {
        segment: u64,
        offset: u64,
    },
    Status {
        source: RankCode,
        tag: i64,
    },
    StatusArr(Vec<(RankCode, i64)>),
    IntArr(Vec<i64>),
    Color(i64),
    Key(i64),
    Str(String),
}

/// A fully decoded call signature.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedCall {
    pub func: u16,
    pub args: Vec<EncodedArg>,
}

impl ArgView for EncodedArg {
    type Status = (RankCode, i64);

    fn int(&self) -> Option<i64> {
        match self {
            EncodedArg::Int(v) => Some(*v),
            _ => None,
        }
    }

    fn ints(&self) -> Option<&[i64]> {
        match self {
            EncodedArg::IntArr(v) => Some(v),
            _ => None,
        }
    }

    fn requests(&self) -> Option<usize> {
        match self {
            EncodedArg::Request(_) => Some(1),
            EncodedArg::RequestArr(v) => Some(v.len()),
            _ => None,
        }
    }

    fn request_at(&self, k: usize) -> Option<u64> {
        match self {
            EncodedArg::Request(sym) if k == 0 => (*sym != u64::MAX).then_some(*sym),
            EncodedArg::RequestArr(v) => *v.get(k)?,
            _ => None,
        }
    }

    fn status_at(&self, k: usize) -> Option<(RankCode, i64)> {
        match self {
            EncodedArg::Status { source, tag } if k == 0 => Some((*source, *tag)),
            EncodedArg::StatusArr(v) => v.get(k).copied(),
            _ => None,
        }
    }

    fn is_any_source(&self) -> bool {
        matches!(self, EncodedArg::Rank(RankCode::AnySource))
    }

    fn is_proc_null(&self) -> bool {
        matches!(self, EncodedArg::Rank(RankCode::ProcNull))
    }

    fn is_any_tag(&self) -> bool {
        matches!(self, EncodedArg::Tag(-1))
    }

    /// A `Relative` source is the delta itself; an `Absolute` one (a trace
    /// encoded without relative ranks) is taken against `base`.
    fn relative_to((source, tag): (RankCode, i64), base: i64) -> Option<(i32, i32)> {
        match source {
            RankCode::Relative(d) => Some((d as i32, tag as i32)),
            RankCode::Absolute(r) => Some(((r - base) as i32, tag as i32)),
            RankCode::AnySource | RankCode::ProcNull => None,
        }
    }
}

/// Incremental signature writer.
#[derive(Debug, Default)]
pub struct SigWriter {
    buf: Vec<u8>,
}

impl SigWriter {
    /// Starts a signature for function id `func`.
    pub fn new(func: u16) -> Self {
        let mut w = SigWriter { buf: Vec::with_capacity(32) };
        w.restart(func);
        w
    }

    /// Discards what was written and starts a signature for `func`,
    /// keeping the buffer's capacity: a writer reused across calls stops
    /// allocating once it has held the longest signature.
    pub fn restart(&mut self, func: u16) {
        self.buf.clear();
        write_varint(&mut self.buf, func as u64);
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    fn tag(&mut self, t: ValTag) {
        self.buf.push(t as u8);
    }

    fn uv(&mut self, v: u64) {
        write_varint(&mut self.buf, v);
    }

    fn iv(&mut self, v: i64) {
        write_varint(&mut self.buf, zigzag(v));
    }

    pub fn int(&mut self, v: i64) {
        self.tag(ValTag::Int);
        self.iv(v);
    }

    fn rank_code(&mut self, code: RankCode) {
        match code {
            RankCode::Relative(d) => {
                self.buf.push(RANK_REL);
                self.iv(d);
            }
            RankCode::Absolute(r) => {
                self.buf.push(RANK_ABS);
                self.iv(r);
            }
            RankCode::AnySource => self.buf.push(RANK_ANY),
            RankCode::ProcNull => self.buf.push(RANK_NULL),
        }
    }

    /// Encodes a src/dst rank, applying relative encoding per the config.
    pub fn rank(&mut self, r: i32, caller_rank: i64, cfg: &EncoderConfig) {
        self.tag(ValTag::Rank);
        self.rank_code(Self::code_for(r, caller_rank, cfg.relative_ranks));
    }

    fn code_for(r: i32, caller_rank: i64, relative: bool) -> RankCode {
        match r {
            -1 => RankCode::AnySource,
            -2 => RankCode::ProcNull,
            r if relative => RankCode::Relative(r as i64 - caller_rank),
            r => RankCode::Absolute(r as i64),
        }
    }

    fn aux(&mut self, tag: ValTag, v: i64, caller_rank: i64, cfg: &EncoderConfig) {
        self.tag(tag);
        if cfg.relative_aux {
            self.buf.push(RANK_REL);
            self.iv(v - caller_rank);
        } else {
            self.buf.push(RANK_ABS);
            self.iv(v);
        }
    }

    pub fn msg_tag(&mut self, t: i32, caller_rank: i64, cfg: &EncoderConfig) {
        // ANY_TAG must stay a wildcard marker under relative encoding.
        if t == -1 {
            self.tag(ValTag::Tag);
            self.buf.push(RANK_ANY);
        } else {
            self.aux(ValTag::Tag, t as i64, caller_rank, cfg);
        }
    }

    pub fn color(&mut self, c: i32, caller_rank: i64, cfg: &EncoderConfig) {
        self.aux(ValTag::Color, c as i64, caller_rank, cfg);
    }

    pub fn key(&mut self, k: i32, caller_rank: i64, cfg: &EncoderConfig) {
        self.aux(ValTag::Key, k as i64, caller_rank, cfg);
    }

    pub fn comm(&mut self, sym: u64) {
        self.tag(ValTag::Comm);
        self.uv(sym);
    }

    pub fn datatype(&mut self, sym: u64) {
        self.tag(ValTag::Datatype);
        self.uv(sym);
    }

    pub fn op(&mut self, id: u32) {
        self.tag(ValTag::Op);
        self.uv(id as u64);
    }

    pub fn group(&mut self, sym: u64) {
        self.tag(ValTag::Group);
        self.uv(sym);
    }

    pub fn request(&mut self, sym: u64) {
        self.tag(ValTag::Request);
        self.uv(sym);
    }

    pub fn request_arr<I>(&mut self, syms: I)
    where
        I: IntoIterator<Item = Option<u64>>,
        I::IntoIter: ExactSizeIterator,
    {
        let syms = syms.into_iter();
        self.tag(ValTag::RequestArr);
        self.uv(syms.len() as u64);
        for s in syms {
            match s {
                // 0 marks REQUEST_NULL; live ids are shifted by one.
                None => self.uv(0),
                Some(id) => self.uv(id + 1),
            }
        }
    }

    pub fn ptr(&mut self, segment: u64, offset: u64, cfg: &EncoderConfig) {
        self.tag(ValTag::Ptr);
        self.uv(segment);
        self.uv(if cfg.pointer_offsets { offset } else { 0 });
    }

    pub fn status(&mut self, source: i32, tag: i32, caller_rank: i64, cfg: &EncoderConfig) {
        self.tag(ValTag::Status);
        self.rank_code(Self::code_for(source, caller_rank, cfg.relative_ranks));
        self.iv(tag as i64);
    }

    pub fn status_arr(&mut self, sts: &[(i32, i32)], caller_rank: i64, cfg: &EncoderConfig) {
        self.status_arr_with(sts, |_| caller_rank, cfg);
    }

    /// Status-array encoding with a per-entry relative base (each status
    /// belongs to a request that may have been created on a different
    /// communicator): entry `k` is encoded relative to `base_of(k)`.
    pub fn status_arr_with(
        &mut self,
        sts: &[(i32, i32)],
        mut base_of: impl FnMut(usize) -> i64,
        cfg: &EncoderConfig,
    ) {
        self.tag(ValTag::StatusArr);
        self.uv(sts.len() as u64);
        for (k, &(s, t)) in sts.iter().enumerate() {
            self.rank_code(Self::code_for(s, base_of(k), cfg.relative_ranks));
            self.iv(t as i64);
        }
    }

    pub fn int_arr(&mut self, vals: &[i64]) {
        self.tag(ValTag::IntArr);
        self.uv(vals.len() as u64);
        for &v in vals {
            self.iv(v);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.tag(ValTag::Str);
        self.uv(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

fn read_rank_code(buf: &[u8], pos: &mut usize) -> Option<RankCode> {
    let kind = *buf.get(*pos)?;
    *pos += 1;
    Some(match kind {
        RANK_REL => RankCode::Relative(unzigzag(read_varint(buf, pos)?)),
        RANK_ABS => RankCode::Absolute(unzigzag(read_varint(buf, pos)?)),
        RANK_ANY => RankCode::AnySource,
        RANK_NULL => RankCode::ProcNull,
        _ => return None,
    })
}

fn read_aux(buf: &[u8], pos: &mut usize) -> Option<(bool, i64)> {
    let kind = *buf.get(*pos)?;
    *pos += 1;
    match kind {
        RANK_REL => Some((true, unzigzag(read_varint(buf, pos)?))),
        RANK_ABS => Some((false, unzigzag(read_varint(buf, pos)?))),
        RANK_ANY => Some((false, -1)),
        _ => None,
    }
}

/// An element or byte count the rest of `sig` can hold: every element
/// takes at least one byte, so a larger count is corruption, never an
/// allocation.
fn read_count(sig: &[u8], pos: &mut usize) -> Option<usize> {
    let n = usize::try_from(read_varint(sig, pos)?).ok()?;
    (n <= sig.len().saturating_sub(*pos)).then_some(n)
}

/// Decodes a full signature back into its argument list.
pub fn decode_signature(sig: &[u8]) -> Option<EncodedCall> {
    let mut pos = 0usize;
    let func = read_varint(sig, &mut pos)? as u16;
    let mut args = Vec::new();
    while pos < sig.len() {
        let tag = ValTag::from_u8(sig[pos])?;
        pos += 1;
        let arg = match tag {
            ValTag::Int => EncodedArg::Int(unzigzag(read_varint(sig, &mut pos)?)),
            ValTag::Rank => EncodedArg::Rank(read_rank_code(sig, &mut pos)?),
            ValTag::Tag => {
                let (_, v) = read_aux(sig, &mut pos)?;
                EncodedArg::Tag(v)
            }
            ValTag::Comm => EncodedArg::Comm(read_varint(sig, &mut pos)?),
            ValTag::Datatype => EncodedArg::Datatype(read_varint(sig, &mut pos)?),
            ValTag::Op => EncodedArg::Op(read_varint(sig, &mut pos)? as u32),
            ValTag::Group => EncodedArg::Group(read_varint(sig, &mut pos)?),
            ValTag::Request => EncodedArg::Request(read_varint(sig, &mut pos)?),
            ValTag::RequestArr => {
                let n = read_count(sig, &mut pos)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    let x = read_varint(sig, &mut pos)?;
                    v.push(if x == 0 { None } else { Some(x - 1) });
                }
                EncodedArg::RequestArr(v)
            }
            ValTag::Ptr => {
                let segment = read_varint(sig, &mut pos)?;
                let offset = read_varint(sig, &mut pos)?;
                EncodedArg::Ptr { segment, offset }
            }
            ValTag::Status => {
                let source = read_rank_code(sig, &mut pos)?;
                let tag = unzigzag(read_varint(sig, &mut pos)?);
                EncodedArg::Status { source, tag }
            }
            ValTag::StatusArr => {
                let n = read_count(sig, &mut pos)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    let source = read_rank_code(sig, &mut pos)?;
                    let tag = unzigzag(read_varint(sig, &mut pos)?);
                    v.push((source, tag));
                }
                EncodedArg::StatusArr(v)
            }
            ValTag::IntArr => {
                let n = read_count(sig, &mut pos)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(unzigzag(read_varint(sig, &mut pos)?));
                }
                EncodedArg::IntArr(v)
            }
            ValTag::Color => {
                let (_, v) = read_aux(sig, &mut pos)?;
                EncodedArg::Color(v)
            }
            ValTag::Key => {
                let (_, v) = read_aux(sig, &mut pos)?;
                EncodedArg::Key(v)
            }
            ValTag::Str => {
                let n = read_count(sig, &mut pos)?;
                let s = String::from_utf8(sig.get(pos..pos + n)?.to_vec()).ok()?;
                pos += n;
                EncodedArg::Str(s)
            }
        };
        args.push(arg);
    }
    Some(EncodedCall { func, args })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EncoderConfig {
        EncoderConfig::default()
    }

    #[test]
    fn roundtrip_all_value_kinds() {
        let c = cfg();
        let mut w = SigWriter::new(17);
        w.int(-5);
        w.rank(7, 3, &c);
        w.msg_tag(99, 3, &c);
        w.comm(2);
        w.datatype(6);
        w.op(1);
        w.group(4);
        w.request(12);
        w.request_arr([Some(0), None, Some(3)]);
        w.ptr(5, 128, &c);
        w.status(1, 42, 3, &c);
        w.status_arr(&[(0, 1), (-2, -1)], 3, &c);
        w.int_arr(&[-1, 0, 1 << 40]);
        w.color(2, 3, &c);
        w.key(0, 3, &c);
        w.str("my-comm");
        let sig = w.into_bytes();
        let call = decode_signature(&sig).expect("decodable");
        assert_eq!(call.func, 17);
        assert_eq!(call.args.len(), 16);
        assert_eq!(call.args[0], EncodedArg::Int(-5));
        assert_eq!(call.args[1], EncodedArg::Rank(RankCode::Relative(4)));
        assert_eq!(call.args[2], EncodedArg::Tag(99));
        assert_eq!(call.args[8], EncodedArg::RequestArr(vec![Some(0), None, Some(3)]));
        assert_eq!(call.args[9], EncodedArg::Ptr { segment: 5, offset: 128 });
        assert_eq!(call.args[10], EncodedArg::Status { source: RankCode::Relative(-2), tag: 42 });
        assert_eq!(call.args[12], EncodedArg::IntArr(vec![-1, 0, 1 << 40]));
        assert_eq!(call.args[15], EncodedArg::Str("my-comm".into()));
    }

    #[test]
    fn relative_ranks_make_stencil_signatures_rank_invariant() {
        let c = cfg();
        // MPI_Send(dst = my_rank + 1) from two different ranks.
        let sig_of = |rank: i64| {
            let mut w = SigWriter::new(1);
            w.rank((rank + 1) as i32, rank, &c);
            w.into_bytes()
        };
        assert_eq!(sig_of(3), sig_of(7), "relative encoding collapses signatures");
    }

    #[test]
    fn absolute_ranks_differ_across_ranks() {
        let c = cfg().relative_ranks(false);
        let sig_of = |rank: i64| {
            let mut w = SigWriter::new(1);
            w.rank((rank + 1) as i32, rank, &c);
            w.into_bytes()
        };
        assert_ne!(sig_of(3), sig_of(7));
    }

    #[test]
    fn wildcards_survive_relative_encoding() {
        let c = cfg();
        let mut w = SigWriter::new(2);
        w.rank(-1, 5, &c); // ANY_SOURCE
        w.rank(-2, 5, &c); // PROC_NULL
        w.msg_tag(-1, 5, &c); // ANY_TAG
        let call = decode_signature(&w.into_bytes()).unwrap();
        assert_eq!(call.args[0], EncodedArg::Rank(RankCode::AnySource));
        assert_eq!(call.args[1], EncodedArg::Rank(RankCode::ProcNull));
        assert_eq!(call.args[2], EncodedArg::Tag(-1));
    }

    #[test]
    fn rank_code_absolutize() {
        assert_eq!(RankCode::Relative(-1).absolutize(5), 4);
        assert_eq!(RankCode::Absolute(3).absolutize(5), 3);
        assert_eq!(RankCode::AnySource.absolutize(5), -1);
        assert_eq!(RankCode::ProcNull.absolutize(5), -2);
    }

    #[test]
    fn relative_aux_encodes_rank_dependent_tags() {
        let c = cfg().relative_aux(true);
        let sig_of = |rank: i64| {
            let mut w = SigWriter::new(1);
            w.msg_tag(rank as i32 + 100, rank, &c); // tag = rank + 100
            w.into_bytes()
        };
        assert_eq!(sig_of(0), sig_of(9));
    }

    #[test]
    fn pointer_offsets_can_be_dropped() {
        let c = cfg().pointer_offsets(false);
        let mut w = SigWriter::new(1);
        w.ptr(3, 999, &c);
        let call = decode_signature(&w.into_bytes()).unwrap();
        assert_eq!(call.args[0], EncodedArg::Ptr { segment: 3, offset: 0 });
    }

    #[test]
    fn config_byte_roundtrip() {
        for b in 0..8u8 {
            assert_eq!(EncoderConfig::from_byte(b).to_byte(), b);
        }
    }

    #[test]
    fn decode_rejects_truncated() {
        let _c = cfg();
        let mut w = SigWriter::new(1);
        w.str("hello");
        let mut sig = w.into_bytes();
        sig.truncate(sig.len() - 2);
        assert!(decode_signature(&sig).is_none());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
