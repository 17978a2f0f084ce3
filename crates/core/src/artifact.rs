//! Deployable machine artifacts: a versioned, checksummed, canonical
//! binary encoding of a lowered machine ([`FlatIr`]) plus its bound
//! parameter values.
//!
//! This is the source paper's deployment story at fleet scale: generate
//! and verify a protocol machine once, [`Artifact::save`] it, ship the
//! bytes to every peer, and [`Artifact::load`] +
//! `Engine::from_artifact` there — no model, no generator, no
//! recompilation of the *spec* on the serving host, and zero
//! allocations per delivered message once loaded. The full byte layout,
//! versioning policy and loader trust model are specified in
//! `docs/ARTIFACT_FORMAT.md` at the repository root.
//!
//! # Layout (format version 1, little-endian)
//!
//! A 16-byte header (magic, format version, flags), seven
//! length-prefixed sections in fixed order — name, messages, params,
//! variables, interned action arena, states/transitions (with guard and
//! update expressions), parameter binding — and a 16-byte footer
//! (content fingerprint + whole-file checksum). Every section starts at
//! an 8-byte-aligned offset, carries its payload length up front and an
//! FNV-1a checksum of its payload behind it, so a corrupt region is
//! attributable to a section; the footer checksum covers the entire
//! file up to itself.
//!
//! # Trust model
//!
//! [`Artifact::load`] treats its input as hostile. Every count is
//! capped against the physically remaining input before any reservation
//! (a 40-byte file cannot declare a million states, whatever its length
//! fields say), every index — message, target state, variable,
//! parameter, operator, action-arena reference — is bounds-checked
//! before the machine is built, strings are UTF-8-validated, and the
//! decoded machine must hash to the content fingerprint the footer
//! declares. Finally the accepted bytes must be *canonical*: load
//! re-encodes the decoded machine and requires byte identity (the
//! re-encode copies the checksum words and the fingerprint it has just
//! verified instead of hashing again), so
//! `save(load(b)) == b` holds for every accepted `b` and an artifact's
//! bytes are a content address for its behaviour. `load` never panics
//! and never allocates more than O(input length) on any input.
//!
//! What `load` does *not* bound is the cost of *compiling* an accepted
//! artifact: a dense transition table is `states × messages` cells, a
//! property of the (honestly encoded) machine itself. Deployments that
//! accept artifacts from untrusted authors should gate on
//! [`Artifact::ir`]'s state/message counts before handing the artifact
//! to an engine.

use std::collections::HashMap;

use crate::efsm::{CmpOp, Efsm, Guard, LinExpr, Operand, ParamId, Update, VarId};
use crate::error::{ArtifactError, StategenError};
use crate::fingerprint::{fnv1a, fold_params};
use crate::ir::{FlatIr, FlatState, FlatTransition};
use crate::machine::{Action, StateRole, MAX_MESSAGES};

/// The 8-byte artifact magic (`"STGNARTF"`).
pub const MAGIC: [u8; 8] = *b"STGNARTF";

/// The artifact format version this toolchain reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Header flag bit: the machine is guarded — it uses guards, updates,
/// variables or parameters ([`FlatIr::is_guarded`]). The flag records
/// what the machine is, not where it runs: `stategen-runtime`'s
/// `Engine::from_artifact` picks the tier.
const FLAG_GUARDED: u32 = 1;

/// Section tags, in the fixed file order.
const SEC_NAME: u32 = 1;
const SEC_MESSAGES: u32 = 2;
const SEC_PARAMS: u32 = 3;
const SEC_VARIABLES: u32 = 4;
const SEC_ACTIONS: u32 = 5;
const SEC_STATES: u32 = 6;
const SEC_BINDING: u32 = 7;

/// Header (magic + version + flags) and footer (content fingerprint +
/// whole-file checksum) sizes, both 8-aligned.
const HEADER_LEN: usize = 16;
const FOOTER_LEN: usize = 16;

/// A deployable machine: a lowered [`FlatIr`] plus the parameter values
/// it ships bound to (empty for unparameterised machines).
///
/// Construct from a lowered IR ([`Artifact::new`]; a flat
/// `StateMachine` lowers through [`FlatIr::from_machine`]) or from an
/// EFSM ([`Artifact::from_efsm`]), serialize with [`Artifact::save`],
/// reconstitute with [`Artifact::load`], and serve with
/// `Engine::from_artifact` in `stategen-runtime`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    ir: FlatIr,
    params: Vec<i64>,
    /// `fold_params(ir.fingerprint(), params)`, hashed once when the
    /// artifact is built or checked against the footer when it is
    /// loaded.
    fingerprint: u64,
}

impl Artifact {
    /// Wraps an already-lowered IR with its parameter binding.
    ///
    /// # Errors
    ///
    /// [`StategenError::ParamCountMismatch`] if `params` does not match
    /// the IR's parameter declaration.
    pub fn new(ir: FlatIr, params: Vec<i64>) -> Result<Artifact, StategenError> {
        if params.len() != ir.params().len() {
            return Err(StategenError::ParamCountMismatch {
                expected: ir.params().len(),
                found: params.len(),
            });
        }
        let fingerprint = fold_params(ir.fingerprint(), &params);
        Ok(Artifact {
            ir,
            params,
            fingerprint,
        })
    }

    /// An artifact of an [`Efsm`] with its parameter values bound.
    ///
    /// # Errors
    ///
    /// [`StategenError::ParamCountMismatch`] if `params` does not match
    /// the EFSM's parameter declaration.
    pub fn from_efsm(efsm: &Efsm, params: Vec<i64>) -> Result<Artifact, StategenError> {
        Artifact::new(FlatIr::from_efsm(efsm), params)
    }

    /// The lowered machine.
    pub fn ir(&self) -> &FlatIr {
        &self.ir
    }

    /// The bound parameter values, in declaration order.
    pub fn params(&self) -> &[i64] {
        &self.params
    }

    /// The machine's display name.
    pub fn name(&self) -> &str {
        self.ir.name()
    }

    /// `true` if the machine is guarded (see [`FlatIr::is_guarded`]).
    pub fn is_guarded(&self) -> bool {
        self.ir.is_guarded()
    }

    /// The artifact's behavioural content fingerprint:
    /// [`FlatIr::fingerprint`] with the bound parameter values folded in
    /// (see [`fold_params`]). This is the value stored in the footer,
    /// the value `Engine::fingerprint` reports for an engine compiled
    /// from this artifact, and the value hot-swap compatibility checks
    /// compare — so an operator can compare an artifact on disk against
    /// a running engine without compiling anything.
    ///
    /// Computed once, when the artifact is built or loaded.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Serializes to the canonical format-version-1 byte encoding.
    ///
    /// The encoding is a pure function of the machine: saving the same
    /// artifact twice yields identical bytes, and
    /// `save(load(b)) == b` for every `b` that [`Artifact::load`]
    /// accepts.
    pub fn save(&self) -> Vec<u8> {
        encode(self, None)
    }

    /// Deserializes and fully validates an artifact from bytes that may
    /// be truncated, bit-flipped, spliced, version-skewed or outright
    /// hostile. See the module docs for the trust model; on any invalid
    /// input this returns an error — it never panics and never
    /// allocates more than O(`bytes.len()`).
    ///
    /// # Errors
    ///
    /// Every [`ArtifactError`] variant, naming the failing section.
    pub fn load(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
        let artifact = decode(bytes)?;
        // Canonicality gate: the accepted bytes must be exactly what we
        // would have written. This closes every "decodes fine but
        // re-saves differently" hole (non-zero padding, re-ordered
        // arena, inconsistent flags) in one check, making artifact
        // bytes a content address. `decode` has verified every checksum
        // word of `bytes`, so the re-encode copies them instead of
        // hashing again (see `encode`).
        if encode(&artifact, Some(bytes)) != bytes {
            return Err(ArtifactError::NotCanonical);
        }
        Ok(artifact)
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Canonical little-endian writer. Sections are length-prefixed,
/// zero-padded to 8 bytes and followed by an FNV-1a payload checksum.
struct Writer<'a> {
    buf: Vec<u8>,
    /// On load, the input image, whose checksum words `decode` has
    /// verified: each checksum word is copied from it at the same offset
    /// instead of computed.
    verified: Option<&'a [u8]>,
}

impl Writer<'_> {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u32::MAX as usize, "string too long for artifact");
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn strs(&mut self, strings: &[String]) {
        self.u32(strings.len() as u32);
        for s in strings {
            self.str(s);
        }
    }

    fn lin(&mut self, expr: &LinExpr) {
        self.i64(expr.constant_part());
        self.u32(expr.terms().len() as u32);
        for &(coeff, operand) in expr.terms() {
            self.i64(coeff);
            match operand {
                Operand::Var(v) => {
                    self.u32(0);
                    self.u32(v.index() as u32);
                }
                Operand::Param(p) => {
                    self.u32(1);
                    self.u32(p.index() as u32);
                }
            }
        }
    }

    /// Appends the FNV-1a checksum of `self.buf[covered]` — or, on
    /// load, the verified image's word at the same offset (zero past its
    /// end: the image is shorter than the re-encode, which cannot equal
    /// it anyway).
    fn checksum(&mut self, covered: std::ops::Range<usize>) {
        let at = self.buf.len();
        match self.verified {
            Some(image) => {
                let word = image.get(at..at + 8).unwrap_or(&[0; 8]);
                self.buf.extend_from_slice(word);
            }
            None => self.u64(fnv1a(&self.buf[covered])),
        }
    }

    /// Writes one section: tag, zero pad word, payload length, payload,
    /// zero padding to 8 bytes, payload checksum.
    fn section(&mut self, tag: u32, body: impl FnOnce(&mut Self)) {
        self.u32(tag);
        self.u32(0);
        let len_at = self.buf.len();
        self.u64(0); // patched below
        let start = self.buf.len();
        body(self);
        let payload_len = self.buf.len() - start;
        self.buf[len_at..len_at + 8].copy_from_slice(&(payload_len as u64).to_le_bytes());
        while !(self.buf.len() - start).is_multiple_of(8) {
            self.buf.push(0);
        }
        self.checksum(start..start + payload_len);
    }
}

/// The interned action arena in canonical (first-occurrence) order over
/// the state/transition walk, plus each transition's index list shape.
fn build_arena(ir: &FlatIr) -> (Vec<String>, HashMap<&str, u32>) {
    let mut arena = Vec::new();
    let mut index: HashMap<&str, u32> = HashMap::new();
    for state in ir.states() {
        for t in state.transitions() {
            for action in t.actions() {
                let msg = action.message();
                if !index.contains_key(msg) {
                    index.insert(msg, arena.len() as u32);
                    arena.push(msg.to_string());
                }
            }
        }
    }
    (arena, index)
}

/// The canonical format-version-1 encoding of `artifact`.
///
/// With `verified` — the image [`Artifact::load`] has just decoded — the
/// checksum words are copied from it rather than computed: if the
/// result equals the image, every copied word sits where `decode`
/// checked it against the same bytes, so the result is also what
/// [`Artifact::save`] computes. The buffer is then sized once, to the
/// image.
fn encode(artifact: &Artifact, verified: Option<&[u8]>) -> Vec<u8> {
    let (ir, params) = (&artifact.ir, &artifact.params);
    let mut w = Writer {
        buf: Vec::with_capacity(verified.map_or(256, <[u8]>::len)),
        verified,
    };
    w.buf.extend_from_slice(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(if ir.is_guarded() { FLAG_GUARDED } else { 0 });

    let (arena, arena_index) = build_arena(ir);
    w.section(SEC_NAME, |w| w.str(ir.name()));
    w.section(SEC_MESSAGES, |w| w.strs(ir.messages()));
    w.section(SEC_PARAMS, |w| w.strs(ir.params()));
    w.section(SEC_VARIABLES, |w| w.strs(ir.variables()));
    w.section(SEC_ACTIONS, |w| w.strs(&arena));
    w.section(SEC_STATES, |w| {
        w.u32(ir.states().len() as u32);
        w.u32(ir.start());
        for state in ir.states() {
            w.str(state.name());
            w.u32(state.role() as u32);
            w.u32(state.transitions().len() as u32);
            for t in state.transitions() {
                w.u32(t.message_index() as u32);
                w.u32(t.target());
                let conds = t.guard().conditions();
                w.u32(conds.len() as u32);
                for cond in conds {
                    w.lin(&cond.lhs);
                    w.u32(cond.op as u32);
                    w.lin(&cond.rhs);
                }
                w.u32(t.updates().len() as u32);
                for update in t.updates() {
                    match update {
                        Update::Set(var, expr) => {
                            w.u32(0);
                            w.u32(var.index() as u32);
                            w.lin(expr);
                        }
                        Update::Inc(var) => {
                            w.u32(1);
                            w.u32(var.index() as u32);
                        }
                    }
                }
                w.u32(t.actions().len() as u32);
                for action in t.actions() {
                    w.u32(arena_index[action.message()]);
                }
            }
        }
    });
    w.section(SEC_BINDING, |w| {
        w.u32(params.len() as u32);
        for &p in params {
            w.i64(p);
        }
    });

    w.u64(artifact.fingerprint);
    w.checksum(0..w.buf.len());
    w.buf
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over one section's payload.
/// Every read is clamped to the current section, so a lying length
/// field can never make a later field read another section's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Exclusive end of the readable range (the current section's
    /// payload end).
    limit: usize,
    /// The section currently being decoded, for error attribution.
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn truncated(&self) -> ArtifactError {
        ArtifactError::Truncated {
            section: self.section,
            offset: self.pos,
        }
    }

    fn malformed(&self, detail: &'static str) -> ArtifactError {
        ArtifactError::Malformed {
            section: self.section,
            detail,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if n > self.limit - self.pos {
            return Err(self.truncated());
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ArtifactError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a declared element count, capped against the bytes
    /// physically remaining in the section (each element occupies at
    /// least `min_size` bytes) — the over-allocation guard: a hostile
    /// count can never reserve more memory than the input's own length
    /// justifies.
    fn count(&mut self, min_size: usize) -> Result<usize, ArtifactError> {
        let n = self.u32()? as usize;
        if n > (self.limit - self.pos) / min_size.max(1) {
            return Err(self.malformed("count exceeds remaining input"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, ArtifactError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(self.malformed("string is not valid UTF-8")),
        }
    }

    fn strs(&mut self, min_len: usize) -> Result<Vec<String>, ArtifactError> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let s = self.str()?;
            if s.len() < min_len {
                return Err(self.malformed("empty name"));
            }
            out.push(s);
        }
        Ok(out)
    }

    fn lin(&mut self, vars: usize, params: usize) -> Result<LinExpr, ArtifactError> {
        let constant = self.i64()?;
        let n_terms = self.count(16)?;
        let mut expr = LinExpr::constant(constant);
        for _ in 0..n_terms {
            let coeff = self.i64()?;
            let kind = self.u32()?;
            let index = self.u32()? as usize;
            let operand = match kind {
                0 if index < vars => LinExpr::var(VarId(index)),
                0 => return Err(self.malformed("expression references undeclared variable")),
                1 if index < params => LinExpr::param(ParamId(index)),
                1 => return Err(self.malformed("expression references undeclared parameter")),
                _ => return Err(self.malformed("unknown operand kind")),
            };
            expr = expr.plus(operand.times(coeff));
        }
        Ok(expr)
    }

    /// Validates the next section's frame (tag, length, checksum) and
    /// scopes subsequent reads to its payload.
    fn enter_section(&mut self, tag: u32, name: &'static str) -> Result<usize, ArtifactError> {
        self.section = name;
        // The frame words live between sections; widen to the file.
        self.limit = self.bytes.len();
        let found_tag = self.u32()?;
        if found_tag != tag {
            return Err(self.malformed("unexpected section tag"));
        }
        let _pad = self.u32()?;
        let len = self.u64()? as usize;
        let start = self.pos;
        // Bound the raw length before any arithmetic on it: a hostile
        // length field must not overflow the padding computation.
        if len > self.bytes.len() - start {
            return Err(self.truncated());
        }
        let padded = len.div_ceil(8) * 8;
        // Payload + padding + trailing checksum must physically fit.
        if padded > self.bytes.len() - start || 8 > self.bytes.len() - start - padded {
            return Err(self.truncated());
        }
        let stored = u64::from_le_bytes(
            self.bytes[start + padded..start + padded + 8]
                .try_into()
                .unwrap(),
        );
        if fnv1a(&self.bytes[start..start + len]) != stored {
            return Err(ArtifactError::ChecksumMismatch { section: name });
        }
        self.limit = start + len;
        Ok(start + len)
    }

    /// Leaves a section: the payload must be fully consumed; skips the
    /// padding and checksum words.
    fn exit_section(&mut self, payload_end: usize) -> Result<(), ArtifactError> {
        if self.pos != payload_end {
            return Err(self.malformed("section payload longer than its contents"));
        }
        self.pos = payload_end.div_ceil(8) * 8 + 8;
        self.limit = self.bytes.len();
        Ok(())
    }

    /// Runs `body` inside a validated section frame.
    fn section<T>(
        &mut self,
        tag: u32,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> Result<T, ArtifactError>,
    ) -> Result<T, ArtifactError> {
        let end = self.enter_section(tag, name)?;
        let value = body(self)?;
        self.exit_section(end)?;
        Ok(value)
    }
}

/// Full structural decode (everything except the final canonicality
/// re-encode, which [`Artifact::load`] performs on the result).
fn decode(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return Err(ArtifactError::NotAnArtifact);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(ArtifactError::Truncated {
            section: "footer",
            offset: bytes.len(),
        });
    }
    let body_end = bytes.len() - FOOTER_LEN;
    let declared_fp = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
    let stored_checksum = u64::from_le_bytes(bytes[body_end + 8..].try_into().unwrap());
    if fnv1a(&bytes[..bytes.len() - 8]) != stored_checksum {
        return Err(ArtifactError::ChecksumMismatch { section: "file" });
    }

    let mut r = Reader {
        bytes,
        pos: HEADER_LEN,
        limit: bytes.len(),
        section: "header",
    };

    let name = r.section(SEC_NAME, "name", |r| r.str())?;
    let messages = r.section(SEC_MESSAGES, "messages", |r| {
        let messages = r.strs(1)?;
        if messages.len() > MAX_MESSAGES {
            return Err(r.malformed("more than 65536 messages"));
        }
        Ok(messages)
    })?;
    let message_lookup = FlatIr::build_lookup(&messages);
    if message_lookup.len() != messages.len() {
        return Err(ArtifactError::Malformed {
            section: "messages",
            detail: "duplicate message name",
        });
    }
    let param_names = r.section(SEC_PARAMS, "params", |r| r.strs(1))?;
    let variables = r.section(SEC_VARIABLES, "variables", |r| r.strs(1))?;
    let arena = r.section(SEC_ACTIONS, "actions", |r| r.strs(1))?;

    let (states, start) = r.section(SEC_STATES, "states", |r| {
        let n_states = r.count(12)?;
        if n_states == 0 {
            return Err(r.malformed("machine has no states"));
        }
        let start = r.u32()?;
        if start as usize >= n_states {
            return Err(r.malformed("start state out of range"));
        }
        let mut states = Vec::with_capacity(n_states);
        for _ in 0..n_states {
            let state_name = r.str()?;
            let role = match r.u32()? {
                0 => StateRole::Normal,
                1 => StateRole::Finish,
                _ => return Err(r.malformed("unknown state role")),
            };
            let n_trans = r.count(20)?;
            let mut transitions = Vec::with_capacity(n_trans);
            for _ in 0..n_trans {
                let message = r.u32()?;
                if message as usize >= messages.len() {
                    return Err(r.malformed("transition trigger out of range"));
                }
                let target = r.u32()?;
                if target as usize >= n_states {
                    return Err(r.malformed("transition target out of range"));
                }
                let n_conds = r.count(28)?;
                let mut guard = Guard::always();
                for _ in 0..n_conds {
                    let lhs = r.lin(variables.len(), param_names.len())?;
                    let op = match r.u32()? {
                        0 => CmpOp::Lt,
                        1 => CmpOp::Le,
                        2 => CmpOp::Eq,
                        3 => CmpOp::Ne,
                        4 => CmpOp::Ge,
                        5 => CmpOp::Gt,
                        _ => return Err(r.malformed("unknown comparison operator")),
                    };
                    let rhs = r.lin(variables.len(), param_names.len())?;
                    guard = guard.and(lhs, op, rhs);
                }
                let n_updates = r.count(8)?;
                let mut updates = Vec::with_capacity(n_updates);
                for _ in 0..n_updates {
                    let tag = r.u32()?;
                    let var = r.u32()? as usize;
                    if var >= variables.len() {
                        return Err(r.malformed("update targets undeclared variable"));
                    }
                    updates.push(match tag {
                        0 => Update::Set(VarId(var), r.lin(variables.len(), param_names.len())?),
                        1 => Update::Inc(VarId(var)),
                        _ => return Err(r.malformed("unknown update tag")),
                    });
                }
                let n_actions = r.count(4)?;
                let mut actions = Vec::with_capacity(n_actions);
                for _ in 0..n_actions {
                    let idx = r.u32()? as usize;
                    let Some(msg) = arena.get(idx) else {
                        return Err(r.malformed("action arena reference out of range"));
                    };
                    actions.push(Action::send(msg));
                }
                transitions.push(FlatTransition {
                    message: message as u16,
                    guard,
                    updates,
                    actions,
                    target,
                });
            }
            states.push(FlatState {
                name: state_name,
                role,
                transitions,
            });
        }
        Ok((states, start))
    })?;

    let params = r.section(SEC_BINDING, "binding", |r| {
        let n = r.count(8)?;
        if n != param_names.len() {
            return Err(r.malformed("binding arity differs from parameter declaration"));
        }
        let mut params = Vec::with_capacity(n);
        for _ in 0..n {
            params.push(r.i64()?);
        }
        Ok(params)
    })?;

    let ir = FlatIr {
        name,
        message_lookup,
        messages,
        params: param_names,
        variables,
        states,
        start,
    };
    let actual = fold_params(ir.fingerprint(), &params);
    if actual != declared_fp {
        return Err(ArtifactError::FingerprintMismatch {
            declared: declared_fp,
            actual,
        });
    }
    Ok(Artifact {
        ir,
        params,
        fingerprint: actual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efsm::EfsmBuilder;
    use crate::machine::StateMachineBuilder;

    fn counter_efsm() -> Efsm {
        let mut b = EfsmBuilder::new("counter", ["tick"]);
        let limit = b.add_param("limit");
        let n = b.add_var("n");
        let counting = b.add_state("counting");
        let done = b.add_state("done");
        b.add_transition(
            counting,
            "tick",
            Guard::when(
                LinExpr::var(n).plus_const(1),
                CmpOp::Lt,
                LinExpr::param(limit),
            ),
            vec![Update::Inc(n)],
            vec![],
            counting,
        );
        b.add_transition(
            counting,
            "tick",
            Guard::when(
                LinExpr::var(n).plus_const(1),
                CmpOp::Ge,
                LinExpr::param(limit),
            ),
            vec![Update::Inc(n)],
            vec![Action::send("done")],
            done,
        );
        b.build(counting, Some(done))
    }

    fn flat_machine() -> Artifact {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("fin", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![Action::send("x"), Action::send("y")]);
        b.add_transition(s1, "b", fin, vec![Action::send("x")]);
        Artifact::new(FlatIr::from_machine(&b.build(s0)), vec![]).unwrap()
    }

    #[test]
    fn flat_machine_round_trips() {
        let artifact = flat_machine();
        let bytes = artifact.save();
        let loaded = Artifact::load(&bytes).expect("round trip");
        assert_eq!(loaded, artifact);
        assert_eq!(loaded.fingerprint(), artifact.fingerprint());
        assert_eq!(loaded.save(), bytes);
        assert!(!loaded.is_guarded());
    }

    #[test]
    fn guarded_efsm_round_trips_with_binding() {
        let artifact = Artifact::from_efsm(&counter_efsm(), vec![3]).expect("arity");
        let bytes = artifact.save();
        let loaded = Artifact::load(&bytes).expect("round trip");
        assert_eq!(loaded, artifact);
        assert_eq!(loaded.params(), [3]);
        assert!(loaded.is_guarded());
        // Different bindings fingerprint differently.
        let other = Artifact::from_efsm(&counter_efsm(), vec![4]).expect("arity");
        assert_ne!(other.fingerprint(), artifact.fingerprint());
    }

    #[test]
    fn binding_arity_is_checked_at_construction() {
        assert!(matches!(
            Artifact::from_efsm(&counter_efsm(), vec![]),
            Err(StategenError::ParamCountMismatch {
                expected: 1,
                found: 0
            })
        ));
    }

    #[test]
    fn rejects_garbage_and_version_skew() {
        assert_eq!(Artifact::load(&[]), Err(ArtifactError::NotAnArtifact));
        assert_eq!(
            Artifact::load(b"not an artifact at all, sorry"),
            Err(ArtifactError::NotAnArtifact)
        );
        let mut bytes = flat_machine().save();
        bytes[8] = 99; // format version
        assert_eq!(
            Artifact::load(&bytes),
            Err(ArtifactError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn rejects_every_truncation() {
        let bytes = flat_machine().save();
        for len in 0..bytes.len() {
            assert!(
                Artifact::load(&bytes[..len]).is_err(),
                "truncation at {len} of {} accepted",
                bytes.len()
            );
        }
    }

    #[test]
    fn rejects_every_single_bit_flip() {
        let bytes = Artifact::from_efsm(&counter_efsm(), vec![3])
            .unwrap()
            .save();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    Artifact::load(&corrupt).is_err(),
                    "bit {bit} of byte {byte} flipped and still accepted"
                );
            }
        }
    }
}
