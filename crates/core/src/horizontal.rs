//! Incremental detection over horizontal partitions (§6): the protocol's
//! messages and its sequential drive.
//!
//! Per site and per variable CFD, the protocol keeps the group state of
//! the local tuples: for each pattern-matching `X`-value group, its
//! distinct RHS classes (each with member tids) plus one `violating` flag.
//!
//! **Invariant.** For a variable CFD, a tuple violates iff its *global*
//! group (across all sites) holds ≥ 2 distinct RHS values — so "violating"
//! is uniform per global group, and every site's flag for a group equals
//! that global fact. The insert/delete case analysis maintains the flags
//! with the minimum communication: a broadcast probe/query only when a
//! *new* conflict arises or the group is locally unknown, and a delete
//! query (possibly followed by a targeted clear) only when no local
//! witness keeps the group's RHS multiplicity ≥ 2.
//!
//! **One site core, two drives.** The per-site state and every step of
//! the case analysis live once, in [`crate::site`]. [`HorizontalDetector`]
//! keeps one core per site in a single struct with one global `V`, and
//! runs every round synchronously over a [`MsgTransport`]: send the
//! request, let the peer's core serve it at once, drain the reply.
//! [`crate::concurrent`] drives the same cores with one OS thread or
//! process per site.
//!
//! **One shipment per tuple** (§6 complexity analysis: *"each tuple in ΔD
//! is sent to other sites at most once"*): all per-CFD probes and queries
//! triggered by one update are coalesced into a single message per peer,
//! carrying the tuple's *per-attribute* payloads plus the list of CFD ids
//! concerned. How each attribute is encoded on the wire is delegated to
//! the session's [`cluster::codec::PayloadCodec`] — MD5 digests (§6's
//! optimization, the default), raw values (the unoptimized variant), or
//! dictionary symbols with one-time per-link deltas
//! ([`cluster::codec::DictSyms`]). Receivers derive every CFD's group key
//! from the attribute digests the codec resolves. Hence `O(n)` messages
//! per update regardless of `|Σ|`, and `O(|ΔD| + |ΔV|)` overall
//! (Proposition 8).
//!
//! **Local checkability.** Constant CFDs never ship (single-tuple checks).
//! A variable CFD ships nothing at site `i` when `X_{F_i} ⊆ X` (violating
//! pairs are co-located) and is skipped entirely at sites where
//! `F_i ∧ F_φ` is unsatisfiable.

use crate::detector::{DetectError, Detector};
use crate::optimize::SharingMode;
use crate::site::{key_digest_from, key_of, Keyed, Round, SiteConfig, SiteCore};
use cfd::{Cfd, CfdId, DeltaV, SharedPlan, Violations};
use cluster::codec::{value_digest_into as attr_digest_into, CodecKind, PayloadCodec, WireValue};
use cluster::md5::Digest;
use cluster::net::{bytes as wirefmt, ByteNetwork, FrameCodec, TransportKind};
use cluster::partition::HorizontalScheme;
use cluster::{ClusterError, MsgTransport, Network, SiteId, Wire};
use relation::{AttrId, FxHashMap, RelError, Relation, Schema, Tid, Tuple, Update, UpdateBatch};
use std::sync::Arc;

/// Messages of the horizontal protocol. One `TupleProbe`/`TupleDelQuery`
/// carries *all* CFD work for one update — the tuple crosses each link at
/// most once. Every value payload is a [`WireValue`] produced by the
/// session's [`PayloadCodec`], so the same message shapes serve all three
/// encodings.
#[derive(Debug, Clone, PartialEq)]
pub enum HorMsg {
    /// Insert-side probe/query for one updated tuple. Receivers know `Σ`,
    /// so the CFDs to check are *implicit*: every variable CFD whose
    /// attributes are all present in the payload (and whose pattern the
    /// digests match) is processed. Only the rare `probes` (brand-new
    /// local conflicts, which force a flag flip even on agreeing remote
    /// classes) are listed explicitly.
    TupleProbe {
        /// Per-attribute payload for the union of attributes the involved
        /// CFDs need (attr id + digest/raw value).
        attrs: Vec<(AttrId, WireValue)>,
        /// CFDs whose group gained a brand-new conflict (flip flags).
        probes: Vec<CfdId>,
    },
    /// Reply to a [`HorMsg::TupleProbe`]: the CFD ids whose groups
    /// conflict with the inserted tuple at the replying site (sparse —
    /// non-listed CFDs don't conflict).
    ProbeReply {
        /// Conflicting CFD ids.
        conflicts: Vec<CfdId>,
    },
    /// Delete-side query: report your distinct RHS values per listed CFD.
    TupleDelQuery {
        /// Attribute payload (union of the listed CFDs' LHS attributes).
        attrs: Vec<(AttrId, WireValue)>,
        /// CFDs whose global multiplicity is in doubt.
        queries: Vec<CfdId>,
    },
    /// Reply to [`HorMsg::TupleDelQuery`].
    DelReply {
        /// Per CFD, the distinct local RHS values of the group.
        bvals: Vec<(CfdId, Vec<WireValue>)>,
    },
    /// The listed CFDs' groups no longer violate anywhere: clear flags.
    ClearFlags {
        /// Attribute payload for group-key derivation.
        attrs: Vec<(AttrId, WireValue)>,
        /// CFDs to clear.
        cfds: Vec<CfdId>,
    },
}

impl Wire for HorMsg {
    fn wire_size(&self) -> usize {
        let attrs_size = |attrs: &Vec<(AttrId, WireValue)>| {
            attrs.iter().map(|(_, a)| 2 + a.wire_size()).sum::<usize>()
        };
        match self {
            HorMsg::TupleProbe { attrs, probes } => 1 + attrs_size(attrs) + 4 * probes.len(),
            HorMsg::ProbeReply { conflicts } => 1 + 4 * conflicts.len(),
            HorMsg::TupleDelQuery { attrs, queries } => attrs_size(attrs) + 4 * queries.len(),
            HorMsg::DelReply { bvals } => bvals
                .iter()
                .map(|(_, vs)| 4 + vs.iter().map(WireValue::wire_size).sum::<usize>())
                .sum(),
            HorMsg::ClearFlags { attrs, cfds } => attrs_size(attrs) + 4 * cfds.len(),
        }
    }
}

// Frame tags of the five message shapes.
const HF_PROBE: u8 = 0;
const HF_PROBE_REPLY: u8 = 1;
const HF_DEL_QUERY: u8 = 2;
const HF_DEL_REPLY: u8 = 3;
const HF_CLEAR: u8 = 4;

/// Serialize `(attr, payload)` pairs; returns structural overhead (the
/// 2-byte count plus each payload's tag bytes — attr ids themselves are
/// modeled at 2 B).
fn put_attrs(out: &mut Vec<u8>, attrs: &[(AttrId, WireValue)]) -> usize {
    let mut ovh = 2;
    out.extend_from_slice(&(attrs.len() as u16).to_le_bytes());
    for (a, w) in attrs {
        out.extend_from_slice(&a.to_le_bytes());
        ovh += wirefmt::put_wire_value(out, w);
    }
    ovh
}

fn get_attrs(r: &mut wirefmt::Reader<'_>) -> Result<Vec<(AttrId, WireValue)>, ClusterError> {
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let a = r.u16()? as AttrId;
        out.push((a, wirefmt::get_wire_value(r)?));
    }
    Ok(out)
}

/// Serialize a CFD-id list; overhead is the 2-byte count (ids are
/// modeled at 4 B each).
fn put_cfds(out: &mut Vec<u8>, cfds: &[CfdId]) -> usize {
    out.extend_from_slice(&(cfds.len() as u16).to_le_bytes());
    for c in cfds {
        out.extend_from_slice(&c.to_le_bytes());
    }
    2
}

fn get_cfds(r: &mut wirefmt::Reader<'_>) -> Result<Vec<CfdId>, ClusterError> {
    let n = r.u16()? as usize;
    (0..n).map(|_| Ok(r.u32()? as CfdId)).collect()
}

/// Real byte framing for the §6 protocol: every [`HorMsg`] serializes to
/// a self-describing frame body and decodes from received bytes alone.
/// The structural overhead (returned by `encode_frame`) is the message
/// tag, the item counts and the per-payload type tags — everything the
/// `|M|` model of [`Wire::wire_size`] deliberately ignores. The probe
/// and probe-reply shapes already model 1 byte of framing (their leading
/// tag), so their tag contributes no overhead.
impl FrameCodec for HorMsg {
    fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
        match self {
            HorMsg::TupleProbe { attrs, probes } => {
                out.push(HF_PROBE); // modeled: wire_size counts this byte
                put_attrs(out, attrs) + put_cfds(out, probes)
            }
            HorMsg::ProbeReply { conflicts } => {
                out.push(HF_PROBE_REPLY); // modeled
                put_cfds(out, conflicts)
            }
            HorMsg::TupleDelQuery { attrs, queries } => {
                out.push(HF_DEL_QUERY);
                1 + put_attrs(out, attrs) + put_cfds(out, queries)
            }
            HorMsg::DelReply { bvals } => {
                out.push(HF_DEL_REPLY);
                out.extend_from_slice(&(bvals.len() as u16).to_le_bytes());
                let mut ovh = 1 + 2;
                for (c, vs) in bvals {
                    out.extend_from_slice(&c.to_le_bytes());
                    out.extend_from_slice(&(vs.len() as u16).to_le_bytes());
                    ovh += 2;
                    for v in vs {
                        ovh += wirefmt::put_wire_value(out, v);
                    }
                }
                ovh
            }
            HorMsg::ClearFlags { attrs, cfds } => {
                out.push(HF_CLEAR);
                1 + put_attrs(out, attrs) + put_cfds(out, cfds)
            }
        }
    }

    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
        let mut r = wirefmt::Reader::new(body);
        let msg = match r.u8()? {
            HF_PROBE => HorMsg::TupleProbe {
                attrs: get_attrs(&mut r)?,
                probes: get_cfds(&mut r)?,
            },
            HF_PROBE_REPLY => HorMsg::ProbeReply {
                conflicts: get_cfds(&mut r)?,
            },
            HF_DEL_QUERY => HorMsg::TupleDelQuery {
                attrs: get_attrs(&mut r)?,
                queries: get_cfds(&mut r)?,
            },
            HF_DEL_REPLY => {
                let n = r.u16()? as usize;
                let mut bvals = Vec::with_capacity(n);
                for _ in 0..n {
                    let c = r.u32()? as CfdId;
                    let k = r.u16()? as usize;
                    let mut vs = Vec::with_capacity(k);
                    for _ in 0..k {
                        vs.push(wirefmt::get_wire_value(&mut r)?);
                    }
                    bvals.push((c, vs));
                }
                HorMsg::DelReply { bvals }
            }
            HF_CLEAR => HorMsg::ClearFlags {
                attrs: get_attrs(&mut r)?,
                cfds: get_cfds(&mut r)?,
            },
            _ => {
                return Err(ClusterError::Transport(
                    "unknown horizontal-protocol message tag".into(),
                ))
            }
        };
        r.finish()?;
        Ok(msg)
    }
}
/// Per-`[cfd][op]` precomputed `(group-key digest, RHS digest)` pairs for
/// a batch — `None` where the op's tuple does not fall under the CFD.
type PreDigests = Vec<Vec<Option<(Digest, Digest)>>>;

/// The incremental violation detector for horizontally partitioned data.
pub struct HorizontalDetector {
    /// The tables every site derives from `Σ` and the scheme.
    cfg: SiteConfig,
    /// Sender-side multi-CFD evaluation mode: shared plan (default) or
    /// the legacy per-CFD loop (kept as a differential baseline).
    sharing: SharingMode,
    scheme: HorizontalScheme,
    /// One §6 core per site: fragment, group state, receiver codecs.
    cores: Vec<SiteCore>,
    /// Which fragment holds each live tuple.
    site_of_tid: FxHashMap<Tid, SiteId>,
    /// Mirror of the logical relation (union of fragments).
    current: Relation,
    violations: Violations,
    /// The substrate protocol rounds ride on: the simulated metered
    /// [`Network`] or a real [`ByteNetwork`] (framed in-process channels
    /// or TCP sockets) that serializes every [`HorMsg`] to bytes.
    net: Box<dyn MsgTransport<HorMsg>>,
    transport: TransportKind,
    /// Sender-side payload encoding for every shipped value (per-link
    /// state lives in the codec — e.g. [`cluster::codec::DictSyms`]
    /// dictionary residency).
    codec: Box<dyn PayloadCodec>,
}

impl HorizontalDetector {
    /// Build a detector over `d` with the default §6 MD5 digest codec.
    pub fn new(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
    ) -> Result<Self, DetectError> {
        Self::with_codec(schema, cfds, scheme, d, CodecKind::Md5)
    }

    /// Build with an explicit payload codec: [`CodecKind::Md5`] (the §6
    /// optimization), [`CodecKind::RawValues`] (the unoptimized variant),
    /// [`CodecKind::Dict`] (symbols on the wire, one-time per-link
    /// dictionary deltas), or [`CodecKind::Lz`] (raw values with
    /// per-frame LZ compression on byte transports). Runs on the
    /// simulated network; see [`HorizontalDetector::with_session`] for
    /// real byte transports.
    pub fn with_codec(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
    ) -> Result<Self, DetectError> {
        Self::with_session(schema, cfds, scheme, d, codec, TransportKind::Simulated)
    }

    /// Build a full session: payload codec **and** transport substrate.
    /// With [`TransportKind::Framed`] or [`TransportKind::Tcp`] every
    /// protocol message is serialized to a length-prefixed byte frame,
    /// shipped through the chosen link (in-process channel or localhost
    /// socket), and decoded at the receiving site from the bytes alone;
    /// the detector then meters modeled `|M|` and measured on-wire bytes
    /// side by side ([`HorizontalDetector::wire_stats`]).
    pub fn with_session(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
        transport: TransportKind,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let net: Box<dyn MsgTransport<HorMsg>> = match transport {
            TransportKind::Simulated => Box::new(Network::new(n)),
            TransportKind::Framed => {
                Box::new(ByteNetwork::in_memory(n).with_compression(codec.compression()))
            }
            TransportKind::Tcp => Box::new(
                ByteNetwork::tcp_localhost(n)
                    .map_err(DetectError::Cluster)?
                    .with_compression(codec.compression()),
            ),
        };
        let cfg = SiteConfig::new(schema, cfds, &scheme);
        let mut det = HorizontalDetector {
            cores: (0..n).map(|site| SiteCore::new(&cfg, site, n)).collect(),
            site_of_tid: FxHashMap::default(),
            current: Relation::new(cfg.schema.clone()),
            violations: Violations::new(cfg.cfds.len()),
            net,
            transport,
            codec: codec.codec(),
            sharing: SharingMode::default(),
            scheme,
            cfg,
        };
        let mut load = UpdateBatch::new();
        for t in d.iter() {
            load.insert(t);
        }
        det.apply(&load)?;
        det.net.reset_stats();
        Ok(det)
    }

    /// Current violation set `V(Σ, D)`.
    pub fn violations(&self) -> &Violations {
        &self.violations
    }

    /// The payload codec this session ships values with.
    pub fn codec_kind(&self) -> CodecKind {
        self.codec.kind()
    }

    /// The transport substrate this session runs on.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport
    }

    /// Network statistics since construction (or last reset).
    pub fn stats(&self) -> cluster::NetStats {
        self.net.stats()
    }

    /// Measured on-wire statistics (frames, actual bytes including
    /// framing), when the session runs over a real byte transport.
    pub fn wire_stats(&self) -> Option<cluster::NetStats> {
        self.net.wire_stats()
    }

    /// Whole-run transport counters (frames, wire/modeled/structural/
    /// saved bytes), when the session runs over a real byte transport.
    pub fn transport_meter(&self) -> Option<cluster::TransportMeter> {
        self.net.transport_meter()
    }

    /// Reset network statistics.
    pub fn reset_stats(&mut self) {
        self.net.reset_stats();
    }

    /// The rule set.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfg.cfds
    }

    /// The merged multi-CFD evaluation plan.
    pub fn shared_plan(&self) -> &Arc<SharedPlan> {
        &self.cfg.plan
    }

    /// Current multi-CFD evaluation mode.
    pub fn sharing_mode(&self) -> SharingMode {
        self.sharing
    }

    /// Select the multi-CFD evaluation mode. Both modes produce
    /// bit-identical violations, `ΔV` and shipments — [`SharingMode::PerCfd`]
    /// only re-enables the legacy `O(|Σ| · |X|)` loop as a baseline.
    pub fn set_sharing(&mut self, mode: SharingMode) {
        self.sharing = mode;
    }

    /// The global schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.cfg.schema
    }

    /// The mirror of the logical relation.
    pub fn current(&self) -> &Relation {
        &self.current
    }

    /// Fragment relation at `site`.
    pub fn fragment(&self, site: SiteId) -> &Relation {
        &self.cores[site].fragment
    }

    /// Apply a batch update `ΔD`, returning `ΔV` — algorithm `incHor`.
    ///
    /// For large batches under [`SharingMode::PerCfd`] the per-CFD MD5
    /// work (group-key and RHS digests of every op, for every matching
    /// variable CFD) is precomputed on scoped threads, and the protocol
    /// itself then replays serially, so message counts and `|M|` are
    /// identical to a sequential run.
    pub fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = delta.normalize(&self.current);
        let pre = self.precompute_digests(&delta);
        let mut dv = DeltaV::default();
        for (i, op) in delta.ops().iter().enumerate() {
            let pre_op = pre.as_ref().map(|p| (p, i));
            match op {
                Update::Insert(t) => {
                    let site = self.scheme.route(t)?;
                    let keyed = self.keyed(site, t, pre_op);
                    let core = &mut self.cores[site];
                    let round = core.insert(&self.cfg, t, &keyed, &mut self.violations, &mut dv)?;
                    self.run_round(site, t, round, &mut dv)?;
                    self.site_of_tid.insert(t.tid, site);
                    self.current.insert(t.clone())?;
                }
                Update::Delete(tid) => {
                    let t = self.current.get(*tid).ok_or(RelError::MissingTid(*tid))?;
                    let site = self.site_of_tid[tid];
                    let keyed = self.keyed(site, &t, pre_op);
                    let core = &mut self.cores[site];
                    let round =
                        core.delete(&self.cfg, &t, &keyed, &mut self.violations, &mut dv)?;
                    self.run_round(site, &t, round, &mut dv)?;
                    self.site_of_tid.remove(tid);
                    self.current.delete(*tid)?;
                }
            }
        }
        debug_assert!(self.net.quiescent(), "protocol rounds must complete");
        dv.settle();
        Ok(dv)
    }

    /// The keyed CFDs of `t` at `site`: the shared dispatch pass, or
    /// under [`SharingMode::PerCfd`] the legacy loop over every CFD
    /// (digests precomputed for large batches).
    fn keyed(&mut self, site: SiteId, t: &Tuple, pre: Option<(&PreDigests, usize)>) -> Vec<Keyed> {
        if self.sharing == SharingMode::Shared {
            return self.cores[site].dispatch(&self.cfg, t);
        }
        let (mut vbuf, mut kbuf) = (Vec::new(), Vec::new());
        let mut keyed = Vec::new();
        for (c, cfd) in self.cfg.cfds.iter().enumerate() {
            let key = if cfd.is_constant() {
                None
            } else if let Some((p, i)) = pre {
                match p[c][i] {
                    Some(x) => Some(x),
                    None => continue, // pattern does not match
                }
            } else if cfd.matches_lhs(t) {
                Some((
                    key_of(cfd, t, &mut vbuf, &mut kbuf),
                    attr_digest_into(t.get(cfd.rhs), &mut vbuf),
                ))
            } else {
                continue;
            };
            keyed.push((c as CfdId, key));
        }
        keyed
    }

    /// Drive one round synchronously: send each peer its request and let
    /// that peer's core serve it at once, fold the replies, then ship the
    /// clears the decision produced.
    fn run_round(
        &mut self,
        site: SiteId,
        t: &Tuple,
        round: Option<Round>,
        dv: &mut DeltaV,
    ) -> Result<(), DetectError> {
        let Some(mut round) = round else {
            return Ok(());
        };
        for i in 0..round.peers.len() {
            let j = round.peers[i];
            let msg = round.request(self.codec.as_mut(), t, site, j);
            self.send_and_serve(site, j, msg, dv)?;
        }
        for (from, reply) in self.net.try_drain(site)? {
            self.cores[site].fold(from, reply, &mut round)?;
        }
        let core = &mut self.cores[site];
        for (j, cfds) in core.close(&self.cfg, t, round, &mut self.violations, dv) {
            let msg = self.cores[site].clear_request(&self.cfg, self.codec.as_mut(), t, j, cfds);
            self.send_and_serve(site, j, msg, dv)?;
        }
        Ok(())
    }

    /// Send `msg` from `src` to `dst` and let `dst`'s core serve it,
    /// sending its reply (if any) back.
    fn send_and_serve(
        &mut self,
        src: SiteId,
        dst: SiteId,
        msg: HorMsg,
        dv: &mut DeltaV,
    ) -> Result<(), DetectError> {
        self.net.send(src, dst, msg)?;
        for (from, req) in self.net.try_drain(dst)? {
            let core = &mut self.cores[dst];
            let codec = self.codec.as_mut();
            if let Some(reply) =
                core.serve(&self.cfg, codec, from, req, &mut self.violations, dv)?
            {
                self.net.send(dst, from, reply)?;
            }
        }
        Ok(())
    }

    /// Per-`[cfd][op]` precomputed `(group-key digest, RHS digest)` for
    /// variable CFDs whose pattern the op's tuple matches (`None`
    /// otherwise, and everywhere for constant CFDs). Deletion digests read
    /// the store's borrowed values — normalization guarantees every
    /// deleted tid is live in the pre-batch relation. Returns `None`
    /// (compute inline) below the parallel threshold, and always under
    /// [`SharingMode::Shared`]: the shared dispatch pass hashes each
    /// attribute once per update instead of once per CFD, so the per-CFD
    /// fan-out this precompute parallelizes no longer exists.
    fn precompute_digests(&self, delta: &UpdateBatch) -> Option<PreDigests> {
        if self.sharing == SharingMode::Shared {
            return None;
        }
        let ops = delta.ops();
        let n_var = self.cfg.cfds.iter().filter(|c| c.is_variable()).count();
        if ops.len() * n_var < crate::par::PAR_THRESHOLD {
            return None;
        }
        let cfds = Arc::clone(&self.cfg.cfds);
        let current = &self.current;
        Some(crate::par::par_map(cfds.len(), true, &|c| {
            let cfd = &cfds[c];
            if cfd.is_constant() {
                return vec![None; ops.len()];
            }
            let (mut vbuf, mut kbuf) = (Vec::new(), Vec::new());
            ops.iter()
                .map(|op| match op {
                    Update::Insert(t) => cfd.matches_lhs(t).then(|| {
                        (
                            key_of(cfd, t, &mut vbuf, &mut kbuf),
                            attr_digest_into(t.get(cfd.rhs), &mut vbuf),
                        )
                    }),
                    Update::Delete(tid) => {
                        let store = current.store();
                        let row = store
                            .row_of(*tid)
                            .expect("normalized deletes target live tuples");
                        let matches = cfd
                            .lhs
                            .iter()
                            .zip(&cfd.lhs_pattern)
                            .all(|(&a, p)| p.matches(store.value(row, a)));
                        matches.then(|| {
                            let kd = key_digest_from(
                                cfd.lhs
                                    .iter()
                                    .map(|&a| attr_digest_into(store.value(row, a), &mut vbuf)),
                                &mut kbuf,
                            );
                            (kd, attr_digest_into(store.value(row, cfd.rhs), &mut vbuf))
                        })
                    }
                })
                .collect()
        }))
    }
}

impl Detector for HorizontalDetector {
    fn strategy(&self) -> &'static str {
        "incHor"
    }

    fn schema(&self) -> &Arc<Schema> {
        HorizontalDetector::schema(self)
    }

    fn cfds(&self) -> &[Cfd] {
        HorizontalDetector::cfds(self)
    }

    fn current(&self) -> &Relation {
        HorizontalDetector::current(self)
    }

    fn violations(&self) -> &Violations {
        HorizontalDetector::violations(self)
    }

    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        HorizontalDetector::apply(self, delta)
    }

    fn net(&self) -> cluster::NetReport {
        let report = cluster::NetReport::single(self.net.stats()).with_codec(self.codec.name());
        match self.net.wire_stats() {
            Some(wire) => report.with_measured(wire),
            None => report,
        }
    }

    fn reset_stats(&mut self) {
        HorizontalDetector::reset_stats(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Value;

    fn emp_schema() -> Arc<Schema> {
        Schema::new(
            "EMP",
            &["id", "grade", "CC", "AC", "zip", "street", "city"],
            "id",
        )
        .unwrap()
    }

    fn emp_tuple(
        tid: Tid,
        grade: &str,
        cc: i64,
        ac: i64,
        zip: &str,
        street: &str,
        city: &str,
    ) -> Tuple {
        Tuple::new(
            tid,
            vec![
                Value::int(tid as i64),
                Value::str(grade),
                Value::int(cc),
                Value::int(ac),
                Value::str(zip),
                Value::str(street),
                Value::str(city),
            ],
        )
    }

    fn d0() -> Relation {
        let mut d = Relation::new(emp_schema());
        d.insert(emp_tuple(1, "A", 44, 131, "EH4 8LE", "Mayfield", "NYC"))
            .unwrap();
        d.insert(emp_tuple(2, "A", 44, 131, "EH2 4HF", "Preston", "EDI"))
            .unwrap();
        d.insert(emp_tuple(3, "B", 44, 131, "EH4 8LE", "Mayfield", "EDI"))
            .unwrap();
        d.insert(emp_tuple(4, "B", 44, 131, "EH4 8LE", "Mayfield", "EDI"))
            .unwrap();
        d.insert(emp_tuple(5, "C", 44, 131, "EH4 8LE", "Crichton", "EDI"))
            .unwrap();
        d
    }

    fn fig1_cfds(s: &Schema) -> Vec<Cfd> {
        vec![
            Cfd::from_names(
                0,
                s,
                &[("CC", Some(Value::int(44))), ("zip", None)],
                ("street", None),
            )
            .unwrap(),
            Cfd::from_names(
                1,
                s,
                &[("CC", Some(Value::int(44))), ("AC", Some(Value::int(131)))],
                ("city", Some(Value::str("EDI"))),
            )
            .unwrap(),
        ]
    }

    /// Fig. 2: grade A / B / C fragments.
    fn fig2_scheme(s: &Arc<Schema>) -> HorizontalScheme {
        HorizontalScheme::by_values(
            s.clone(),
            s.attr_id("grade").unwrap(),
            vec![
                vec![Value::str("A")],
                vec![Value::str("B")],
                vec![Value::str("C")],
            ],
        )
        .unwrap()
    }

    fn detector() -> HorizontalDetector {
        let s = emp_schema();
        HorizontalDetector::new(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0()).unwrap()
    }

    #[test]
    fn initial_violations_match_fig1() {
        let det = detector();
        let v = det.violations();
        let mut phi1: Vec<Tid> = v.of_cfd(0).iter().copied().collect();
        phi1.sort_unstable();
        assert_eq!(phi1, vec![1, 3, 4, 5]);
        assert_eq!(v.of_cfd(1).iter().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(det.stats().total_bytes(), 0, "load is unmetered");
    }

    #[test]
    fn example9_insert_t6_ships_nothing() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        let dv = det.apply(&delta).unwrap();
        // ΔV⁺ = {t6} (Example 9); t5 is a known violation at the same site,
        // so no data is shipped (Example 2(1)(b), horizontal case).
        assert_eq!(dv.added, vec![(0, 6)]);
        assert!(dv.removed.is_empty());
        assert_eq!(det.stats().total_bytes(), 0);
    }

    #[test]
    fn example2_delete_t4_ships_nothing() {
        let mut det = detector();
        let mut d1 = UpdateBatch::new();
        d1.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        det.apply(&d1).unwrap();
        det.reset_stats();
        let mut d2 = UpdateBatch::new();
        d2.delete(4);
        let dv = det.apply(&d2).unwrap();
        // t3 remains in t4's class at the same site: only t4 leaves V.
        assert_eq!(dv.removed, vec![(0, 4)]);
        assert!(dv.added.is_empty());
        assert_eq!(det.stats().total_bytes(), 0);
    }

    #[test]
    fn cross_site_conflict_detected_on_insert() {
        let mut det = detector();
        let mut d1 = UpdateBatch::new();
        d1.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        let dv1 = det.apply(&d1).unwrap();
        assert!(dv1.added.is_empty(), "single member group");
        det.reset_stats();
        let mut d2 = UpdateBatch::new();
        d2.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        let dv2 = det.apply(&d2).unwrap();
        assert_eq!(dv2.added_tids_sorted(), vec![10, 11]);
        assert!(det.stats().total_bytes() > 0, "query round was needed");
    }

    #[test]
    fn cross_site_deletion_clears_remote_marks() {
        let mut det = detector();
        let mut d1 = UpdateBatch::new();
        d1.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        d1.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        det.apply(&d1).unwrap();
        assert!(det.violations().is_violation(10));
        // Deleting t11 leaves t10 as the only member: both marks must go.
        let mut d2 = UpdateBatch::new();
        d2.delete(11);
        let dv = det.apply(&d2).unwrap();
        assert_eq!(dv.removed_tids_sorted(), vec![10, 11]);
        assert!(!det.violations().is_violation(10));
    }

    #[test]
    fn one_message_per_peer_regardless_of_cfd_count() {
        // §6: "each tuple in ΔD is sent to other sites at most once". Ten
        // variable CFDs all needing a query must still produce exactly one
        // probe per peer (plus at most one reply each).
        let s = emp_schema();
        let mut cfds = Vec::new();
        for (i, rhs) in ["street", "city", "AC", "street", "city"]
            .iter()
            .enumerate()
        {
            cfds.push(
                Cfd::from_names(
                    i as u32,
                    &s,
                    &[("CC", Some(Value::int(44))), ("zip", None)],
                    (rhs, None),
                )
                .unwrap(),
            );
        }
        for (i, rhs) in ["grade", "AC"].iter().enumerate() {
            cfds.push(Cfd::from_names((5 + i) as u32, &s, &[("zip", None)], (rhs, None)).unwrap());
        }
        let mut det = HorizontalDetector::new(s.clone(), cfds, fig2_scheme(&s), &d0()).unwrap();
        det.reset_stats();
        let mut d = UpdateBatch::new();
        // Brand-new zip → every variable CFD queries.
        d.insert(emp_tuple(30, "A", 44, 131, "ZZ1 1ZZ", "Somewhere", "EDI"));
        det.apply(&d).unwrap();
        // 2 peers: ≤ 1 probe + ≤ 1 reply each.
        assert!(
            det.stats().total_messages() <= 4,
            "got {} messages",
            det.stats().total_messages()
        );
    }

    #[test]
    fn md5_codec_ships_fewer_bytes_than_raw() {
        let s = emp_schema();
        let mk = |codec: CodecKind| {
            HorizontalDetector::with_codec(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0(), codec)
                .unwrap()
        };
        let run = |det: &mut HorizontalDetector| {
            let mut d = UpdateBatch::new();
            d.insert(emp_tuple(
                20,
                "A",
                44,
                131,
                "a-very-long-postal-code-value-0001",
                "An Extremely Long Street Name Indeed",
                "EDI",
            ));
            det.apply(&d).unwrap();
            det.stats().total_bytes()
        };
        let md5_bytes = run(&mut mk(CodecKind::Md5));
        let raw_bytes = run(&mut mk(CodecKind::RawValues));
        assert!(
            md5_bytes > 0 && raw_bytes > md5_bytes,
            "md5 {md5_bytes} vs raw {raw_bytes}"
        );
    }

    #[test]
    fn dict_codec_matches_md5_violations_and_wins_on_repeats() {
        let s = emp_schema();
        let mk = |codec: CodecKind| {
            HorizontalDetector::with_codec(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0(), codec)
                .unwrap()
        };
        // Insert/delete cycles of the same cross-site conflict: every
        // cycle re-ships the same zip (probe + delete query) and street
        // values (delete replies) over the same links. Raw pays their full
        // width each cycle; dict pays each link's dictionary entry in
        // cycle one and 4 B per value thereafter.
        let run = |det: &mut HorizontalDetector| {
            for _ in 0..8 {
                let mut ins = UpdateBatch::new();
                ins.insert(emp_tuple(
                    100,
                    "A",
                    44,
                    131,
                    "a-very-long-postal-code-0001",
                    "Mayfield Gardens Extension",
                    "EDI",
                ));
                ins.insert(emp_tuple(
                    101,
                    "B",
                    44,
                    131,
                    "a-very-long-postal-code-0001",
                    "Crichton Street The Longer",
                    "EDI",
                ));
                det.apply(&ins).unwrap();
                let mut del = UpdateBatch::new();
                del.delete(100);
                del.delete(101);
                det.apply(&del).unwrap();
            }
            (det.violations().marks_sorted(), det.stats().total_bytes())
        };
        let (v_dict, dict_bytes) = run(&mut mk(CodecKind::Dict));
        let (v_raw, raw_bytes) = run(&mut mk(CodecKind::RawValues));
        let (v_md5, _) = run(&mut mk(CodecKind::Md5));
        assert_eq!(v_dict, v_raw, "codec must not change results");
        assert_eq!(v_dict, v_md5);
        let oracle = {
            let mut det = mk(CodecKind::Dict);
            run(&mut det);
            cfd::naive::detect(det.cfds(), det.current())
        };
        assert_eq!(v_dict, oracle.marks_sorted());
        assert!(
            dict_bytes > 0 && dict_bytes < raw_bytes,
            "dict {dict_bytes} vs raw {raw_bytes}"
        );
    }

    #[test]
    fn constant_cfd_is_local() {
        let mut det = detector();
        det.reset_stats();
        let mut d = UpdateBatch::new();
        d.insert(emp_tuple(30, "B", 44, 131, "EH8 8XX", "Baz", "GLA"));
        let dv = det.apply(&d).unwrap();
        assert!(dv.added.contains(&(1, 30)));
        let mut d2 = UpdateBatch::new();
        d2.delete(30);
        let dv2 = det.apply(&d2).unwrap();
        assert!(dv2.removed.contains(&(1, 30)));
    }

    #[test]
    fn local_ok_partition_never_ships() {
        // Partition on zip (⊆ X of φ1): conflicts are always co-located.
        let s = emp_schema();
        let zip = s.attr_id("zip").unwrap();
        let scheme = HorizontalScheme::by_hash(s.clone(), zip, 4).unwrap();
        let cfds = vec![fig1_cfds(&s).remove(0)];
        let mut det = HorizontalDetector::new(s, cfds, scheme, &d0()).unwrap();
        let mut d = UpdateBatch::new();
        d.insert(emp_tuple(40, "A", 44, 131, "EH4 8LE", "Zig", "EDI"));
        d.insert(emp_tuple(41, "B", 44, 131, "ZZ9 9ZZ", "Zag", "EDI"));
        d.delete(5);
        d.delete(40);
        det.apply(&d).unwrap();
        assert_eq!(det.stats().total_bytes(), 0, "X_{{F_i}} ⊆ X ⇒ no shipment");
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    }

    #[test]
    fn irrelevant_sites_are_skipped() {
        let s = emp_schema();
        let cc = s.attr_id("CC").unwrap();
        let scheme = HorizontalScheme::by_values(
            s.clone(),
            cc,
            vec![vec![Value::int(44)], vec![Value::int(1)]],
        )
        .unwrap();
        let cfds = vec![Cfd::from_names(
            0,
            &s,
            &[("CC", Some(Value::int(44))), ("zip", None)],
            ("street", None),
        )
        .unwrap()];
        let mut det = HorizontalDetector::new(s, cfds, scheme, &d0()).unwrap();
        det.reset_stats();
        let mut d = UpdateBatch::new();
        d.insert(emp_tuple(50, "A", 44, 131, "NEW 111", "Foo", "EDI"));
        det.apply(&d).unwrap();
        // Only peer (CC=1) is irrelevant (F_j ∧ F_φ unsat) → nothing sent.
        assert_eq!(det.stats().total_messages(), 0);
    }

    #[test]
    fn matches_oracle_after_mixed_batch() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        delta.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        delta.delete(4);
        delta.insert(emp_tuple(9, "B", 44, 131, "EH2 4HF", "Lauriston", "EDI"));
        delta.delete(2);
        delta.insert(emp_tuple(12, "A", 44, 131, "EH2 4HF", "Lauriston", "NYC"));
        det.apply(&delta).unwrap();
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
    }

    #[test]
    fn group_state_garbage_collected() {
        let mut det = detector();
        let mut delta = UpdateBatch::new();
        for tid in 1..=5 {
            delta.delete(tid);
        }
        det.apply(&delta).unwrap();
        assert!(det.violations().is_empty());
        for site in 0..3 {
            for c in 0..det.cfds().len() {
                assert!(
                    det.cores[site].state[c].is_empty(),
                    "site {site} cfd {c} retains groups"
                );
            }
        }
    }
}
