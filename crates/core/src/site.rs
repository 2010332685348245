//! The per-site core of the §6 protocol (`incHor`).
//!
//! One site's share of `incHor` is a case analysis over its own fragment:
//! the insert case and the delete case for the updates it owns, plus the
//! probe, delete-query and clear requests it serves for its peers.
//! [`SiteConfig`] holds what every site derives from `(schema, Σ, scheme)`
//! alone; `SiteCore` holds one site's fragment, per-CFD group state and
//! receiver-side codec state, and owns every step of the analysis.
//!
//! The core never touches a transport. An update's case analysis yields
//! an open `Round` (the request each peer gets and the replies folded
//! so far); the core serves the requests it is handed and decides a round
//! once its replies are in. Two drives move the messages:
//! [`crate::HorizontalDetector`] keeps every site's core in one struct and
//! runs each round synchronously over a [`cluster::MsgTransport`], while
//! [`crate::concurrent::SiteRunner`] runs one core per OS thread or
//! process over a byte mesh. Every step takes the marks as
//! `&mut Violations` plus `&mut DeltaV`, so the sequential drive keeps one
//! global `V` and each concurrent site its own slice.

use crate::detector::DetectError;
use crate::horizontal::HorMsg;
use cfd::{Cfd, CfdId, DeltaV, MarkError, MatchScratch, SharedPlan, Violations};
use cluster::codec::{
    value_digest as attr_digest, value_digest_into as attr_digest_into, PayloadCodec,
    ReceiverCodec, WireValue,
};
use cluster::md5::{md5, Digest};
use cluster::partition::HorizontalScheme;
use cluster::{ClusterError, SiteId};
use relation::{AttrId, FxHashMap, FxHashSet, Relation, Schema, Tid, Tuple, Value};
use std::sync::Arc;

/// A CFD selected for one tuple by the keyed dispatch, with its
/// `(group-key digest, RHS digest)` — `None` for a constant CFD.
pub(crate) type Keyed = (CfdId, Option<(Digest, Digest)>);

/// A protocol violation by a peer (or a frame out of place).
pub(crate) fn proto(msg: impl Into<String>) -> DetectError {
    DetectError::Cluster(ClusterError::Transport(msg.into()))
}

/// Group-key digest of a CFD's LHS: MD5 over the concatenated per-attribute
/// digests (in LHS order). Computable both from raw values and from shipped
/// attribute digests, which is what lets one message serve every CFD. The
/// key buffer is caller-supplied and reused across probes.
pub(crate) fn key_digest_from(
    attr_digests: impl IntoIterator<Item = Digest>,
    kbuf: &mut Vec<u8>,
) -> Digest {
    kbuf.clear();
    for d in attr_digests {
        kbuf.extend_from_slice(&d.0);
    }
    md5(kbuf)
}

/// Group-key digest of `cfd`'s LHS for tuple `t`, built in the two
/// caller-supplied scratch buffers (value bytes, key bytes).
pub(crate) fn key_of(cfd: &Cfd, t: &Tuple, vbuf: &mut Vec<u8>, kbuf: &mut Vec<u8>) -> Digest {
    key_digest_from(
        cfd.lhs.iter().map(|&a| attr_digest_into(t.get(a), vbuf)),
        kbuf,
    )
}

/// Group-key digest of `cfd`'s LHS from shipped attribute digests.
fn key_from_wire(cfd: &Cfd, digests: &FxHashMap<AttrId, Digest>, kbuf: &mut Vec<u8>) -> Digest {
    key_digest_from(cfd.lhs.iter().map(|a| digests[a]), kbuf)
}

/// Digest of `t[a]`, memoized across the CFDs sharing the attribute: each
/// attribute of an update is hashed once, no matter how many plans read it.
fn digest_cached(
    cache: &mut FxHashMap<AttrId, Digest>,
    t: &Tuple,
    a: AttrId,
    vbuf: &mut Vec<u8>,
) -> Digest {
    *cache
        .entry(a)
        .or_insert_with(|| attr_digest_into(t.get(a), vbuf))
}

/// Wire payload for `attrs` (sorted), from tuple values, encoded by
/// `codec` for the `src → dst` link.
fn encode(
    codec: &mut dyn PayloadCodec,
    t: &Tuple,
    attrs: &[AttrId],
    src: SiteId,
    dst: SiteId,
) -> Vec<(AttrId, WireValue)> {
    attrs
        .iter()
        .map(|&a| (a, codec.encode(src, dst, t.get(a))))
        .collect()
}

/// Add a mark to `V`, recording it in `ΔV` if it is new.
fn mark(v: &mut Violations, dv: &mut DeltaV, cfd: CfdId, tid: Tid) {
    if v.add(cfd, tid) {
        dv.add(cfd, tid);
    }
}

/// Remove a mark from `V`, recording it in `ΔV` if it was present.
fn unmark(v: &mut Violations, dv: &mut DeltaV, cfd: CfdId, tid: Tid) {
    if v.remove(cfd, tid) {
        dv.remove(cfd, tid);
    }
}

/// Everything a site derives from `(schema, Σ, scheme)` alone —
/// identical at every site, cheap to clone (all `Arc`s), and
/// reconstructible in a separate process from the same inputs.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    pub(crate) schema: Arc<Schema>,
    pub(crate) cfds: Arc<[Cfd]>,
    /// The merged multi-CFD plan: one dispatch scan decides LHS matching
    /// for the whole rule set, and its key groups (variable CFDs with an
    /// identical LHS, first-seen order) give one group-key digest per
    /// distinct LHS — on the sending side and in the receiver's
    /// implicit-query walk alike.
    pub(crate) plan: Arc<SharedPlan>,
    /// Per CFD: digests of the LHS constant atoms (pattern checks on
    /// shipped payloads without re-hashing constants).
    atom_digests: Arc<[Vec<(AttrId, Digest)>]>,
    /// `local_ok[cfd][site]`: `X_{F_i} ⊆ X` — no cross-site conflicts.
    local_ok: Arc<[Vec<bool>]>,
    /// `relevant[cfd]`: sites where `F_i ∧ F_φ` is satisfiable.
    relevant: Arc<[Vec<SiteId>]>,
}

impl SiteConfig {
    /// Derive the shared configuration of every site of `scheme`.
    pub fn new(schema: Arc<Schema>, cfds: Vec<Cfd>, scheme: &HorizontalScheme) -> Self {
        let n = scheme.n_sites();
        let mut local_ok = Vec::with_capacity(cfds.len());
        let mut relevant = Vec::with_capacity(cfds.len());
        let mut atom_digests = Vec::with_capacity(cfds.len());
        for cfd in &cfds {
            let lhs: FxHashSet<_> = cfd.lhs.iter().copied().collect();
            local_ok.push(
                (0..n)
                    .map(|i| scheme.predicate(i).attrs().iter().all(|a| lhs.contains(a)))
                    .collect::<Vec<bool>>(),
            );
            let atoms = cfd.constant_atoms();
            relevant.push(
                (0..n)
                    .filter(|&i| !scheme.predicate(i).conflicts_with_atoms(&atoms))
                    .collect::<Vec<SiteId>>(),
            );
            atom_digests.push(
                atoms
                    .into_iter()
                    .map(|(a, v)| (a, attr_digest(&v)))
                    .collect::<Vec<_>>(),
            );
        }
        SiteConfig {
            plan: Arc::new(SharedPlan::new(&cfds)),
            schema,
            cfds: cfds.into(),
            atom_digests: atom_digests.into(),
            local_ok: local_ok.into(),
            relevant: relevant.into(),
        }
    }

    /// The sorted attribute union a request for `cfds` carries: every
    /// LHS attribute, plus the RHS of the CFDs in `with_rhs`.
    fn attrs(&self, cfds: &[CfdId], with_rhs: &[CfdId]) -> Vec<AttrId> {
        let mut v: Vec<AttrId> = cfds
            .iter()
            .chain(with_rhs)
            .flat_map(|&c| self.cfds[c as usize].lhs.iter().copied())
            .chain(with_rhs.iter().map(|&c| self.cfds[c as usize].rhs))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// One RHS class within a group at one site.
pub(crate) struct ClassEntry {
    tids: FxHashSet<Tid>,
    /// Representative raw RHS value (shipped in delete-query replies).
    raw_b: Value,
}

/// Per-site, per-CFD group state.
#[derive(Default)]
pub(crate) struct GroupState {
    classes: FxHashMap<Digest, ClassEntry>,
    /// Does the *global* group violate? (uniform across sites)
    violating: bool,
}

impl GroupState {
    fn members(&self) -> Vec<Tid> {
        self.classes
            .values()
            .flat_map(|c| c.tids.iter().copied())
            .collect()
    }
}

/// One update's open remote round: the request every peer gets and the
/// replies folded so far.
pub(crate) struct Round {
    /// Peers the request goes to, ascending.
    pub(crate) peers: Vec<SiteId>,
    /// The sorted attribute union the request carries.
    attrs: Vec<AttrId>,
    /// The payload of a stateless codec, encoded once for every peer.
    cached: Option<Vec<(AttrId, WireValue)>>,
    kind: RoundKind,
}

enum RoundKind {
    /// Insert: explicit probes (brand-new local conflicts), implicit
    /// queries (locally unknown groups), and the queried CFDs some peer
    /// reported conflicting.
    Probe {
        probes: Vec<CfdId>,
        queries: Vec<CfdId>,
        conflicting: FxHashSet<CfdId>,
    },
    /// Delete: per CFD whose global multiplicity is in doubt, the distinct
    /// RHS digests peers reported and the peers holding members.
    DelQuery {
        queries: Vec<CfdId>,
        global: FxHashMap<CfdId, FxHashSet<Digest>>,
        holders: FxHashMap<CfdId, Vec<SiteId>>,
    },
}

impl Round {
    /// The request of this round for peer `dst`, encoded for the
    /// `src → dst` link. Link-stateful codecs ([`PayloadCodec::per_link`])
    /// encode fresh per peer; stateless ones encode once and clone.
    pub(crate) fn request(
        &mut self,
        codec: &mut dyn PayloadCodec,
        t: &Tuple,
        src: SiteId,
        dst: SiteId,
    ) -> HorMsg {
        let attrs = if codec.per_link() {
            encode(codec, t, &self.attrs, src, dst)
        } else {
            let attrs = &self.attrs;
            self.cached
                .get_or_insert_with(|| encode(codec, t, attrs, src, dst))
                .clone()
        };
        match &self.kind {
            RoundKind::Probe { probes, .. } => HorMsg::TupleProbe {
                attrs,
                probes: probes.clone(),
            },
            RoundKind::DelQuery { queries, .. } => HorMsg::TupleDelQuery {
                attrs,
                queries: queries.clone(),
            },
        }
    }
}

/// One site's §6 state — its fragment, per-CFD group state and
/// receiver-side codec state — and every step of the case analysis.
pub(crate) struct SiteCore {
    pub(crate) me: SiteId,
    pub(crate) fragment: Relation,
    /// Group state per CFD (empty maps for constant CFDs).
    pub(crate) state: Vec<FxHashMap<Digest, GroupState>>,
    /// Receiver-side codec state per sending site: link dictionaries
    /// built **only from received payloads** (deltas), so digests derive
    /// from what actually crossed the wire.
    rx: Vec<ReceiverCodec>,
    /// Shared-plan dispatch scratch (generation-stamped counters).
    scratch: MatchScratch,
    vbuf: Vec<u8>,
    kbuf: Vec<u8>,
}

impl SiteCore {
    /// An empty site `me` of an `n`-site mesh.
    pub(crate) fn new(cfg: &SiteConfig, me: SiteId, n: usize) -> Self {
        SiteCore {
            me,
            fragment: Relation::new(cfg.schema.clone()),
            state: (0..cfg.cfds.len()).map(|_| FxHashMap::default()).collect(),
            rx: (0..n).map(|src| ReceiverCodec::for_link(src, me)).collect(),
            scratch: MatchScratch::default(),
            vbuf: Vec::new(),
            kbuf: Vec::new(),
        }
    }

    /// Keyed dispatch: the CFDs whose LHS pattern `t` matches, ascending
    /// by id (the order of the per-CFD loop), from one shared-plan pass.
    /// Each attribute is hashed once per update and each group-key digest
    /// once per key group.
    pub(crate) fn dispatch(&mut self, cfg: &SiteConfig, t: &Tuple) -> Vec<Keyed> {
        let plan = &cfg.plan;
        let (vbuf, kbuf) = (&mut self.vbuf, &mut self.kbuf);
        let mut attr_d: FxHashMap<AttrId, Digest> = FxHashMap::default();
        let mut group_kd: Vec<Option<Digest>> = vec![None; plan.key_groups().len()];
        plan.matched(t, &mut self.scratch)
            .iter()
            .map(|&cid| {
                let cfd = &cfg.cfds[cid as usize];
                if cfd.is_constant() {
                    return (cid, None);
                }
                let g = plan.group_of(cid).expect("variable CFD joins a key group");
                let kd = *group_kd[g].get_or_insert_with(|| {
                    key_digest_from(
                        cfd.lhs
                            .iter()
                            .map(|&a| digest_cached(&mut attr_d, t, a, vbuf)),
                        kbuf,
                    )
                });
                (
                    cid,
                    Some((kd, digest_cached(&mut attr_d, t, cfd.rhs, vbuf))),
                )
            })
            .collect()
    }

    /// Peers relevant to at least one of `cfds`, minus this site,
    /// ascending.
    fn peers<'a>(&self, cfg: &SiteConfig, cfds: impl Iterator<Item = &'a CfdId>) -> Vec<SiteId> {
        let mut peers: Vec<SiteId> = cfds
            .flat_map(|&c| cfg.relevant[c as usize].iter().copied())
            .filter(|&j| j != self.me)
            .collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// The §6 insertion case analysis of `t` over its keyed CFDs. Stores
    /// `t` in the fragment and returns the remote round it opens, if any.
    ///
    /// Inserts ship nothing when a local same-RHS witness or an
    /// already-violating group decides the outcome (the zero-shipment
    /// cases of Examples 2 and 9); a probe is needed only when a *new*
    /// conflict arises, a query only when the group is locally unknown.
    pub(crate) fn insert(
        &mut self,
        cfg: &SiteConfig,
        t: &Tuple,
        keyed: &[Keyed],
        v: &mut Violations,
        dv: &mut DeltaV,
    ) -> Result<Option<Round>, DetectError> {
        let (mut probes, mut queries) = (Vec::new(), Vec::new());
        for &(cid, key) in keyed {
            let c = cid as usize;
            let cfd = &cfg.cfds[c];
            let Some((kd, bd)) = key else {
                if cfd.constant_violation(t) {
                    mark(v, dv, cid, t.tid);
                }
                continue;
            };
            let local_only = cfg.local_ok[c][self.me];
            let g = self.state[c].entry(kd).or_default();
            let n = g.classes.len();
            let has_other = g.classes.keys().any(|&k| k != bd);
            // Mutate local state first.
            g.classes
                .entry(bd)
                .or_insert_with(|| ClassEntry {
                    tids: FxHashSet::default(),
                    raw_b: t.get(cfd.rhs).clone(),
                })
                .tids
                .insert(t.tid);
            if n == 0 {
                // Group unknown locally.
                if !local_only {
                    queries.push(cid);
                }
            } else if g.violating {
                // Either a single class agreeing with t, or a conflict
                // everyone concerned already knows (≥2 classes, or a
                // known remote conflict): only t is new. Zero shipment —
                // Examples 2(1)(b)/9.
                mark(v, dv, cid, t.tid);
            } else if has_other {
                // Exactly one clashing class and the group was satisfied:
                // a brand-new conflict. Everyone in the group joins V.
                g.violating = true;
                for m in g.members() {
                    mark(v, dv, cid, m);
                }
                if !local_only {
                    probes.push(cid);
                }
            }
        }
        self.fragment.insert(t.clone())?;
        if probes.is_empty() && queries.is_empty() {
            return Ok(None);
        }
        let peers = self.peers(cfg, probes.iter().chain(&queries));
        if peers.is_empty() {
            return Ok(None);
        }
        Ok(Some(Round {
            peers,
            // Probe CFDs need the LHS, query CFDs LHS + RHS.
            attrs: cfg.attrs(&probes, &queries),
            cached: None,
            kind: RoundKind::Probe {
                probes,
                queries,
                conflicting: FxHashSet::default(),
            },
        }))
    }

    /// The §6 deletion case analysis of `t` over its keyed CFDs. Removes
    /// `t` from the fragment and returns the remote round it opens, if
    /// any.
    ///
    /// Deletes ship nothing while a local witness keeps the group's RHS
    /// multiplicity ≥ 2; otherwise one query round (and possibly a
    /// targeted clear round) resolves the global state.
    pub(crate) fn delete(
        &mut self,
        cfg: &SiteConfig,
        t: &Tuple,
        keyed: &[Keyed],
        v: &mut Violations,
        dv: &mut DeltaV,
    ) -> Result<Option<Round>, DetectError> {
        let tid = t.tid;
        let mut queries = Vec::new();
        for &(cid, key) in keyed {
            let c = cid as usize;
            // A constant CFD's mark needs no group state. (Dispatch
            // restricted to LHS-matching CFDs is sound here: `tid ∈ V(φ)`
            // implies the immutable tuple matched `φ`'s LHS at insert.)
            let Some((kd, bd)) = key else {
                unmark(v, dv, cid, tid);
                continue;
            };
            let local_only = cfg.local_ok[c][self.me];
            // A live tuple's insert created its group and class; a miss
            // means the site state is out of sync with the fragment.
            let broken = || DetectError::Invariant(MarkError { rule: cid, tid });
            let g = self.state[c].get_mut(&kd).ok_or_else(broken)?;
            let cls = g.classes.get_mut(&bd).ok_or_else(broken)?;
            cls.tids.remove(&tid);
            let class_empty = cls.tids.is_empty();
            if class_empty {
                g.classes.remove(&bd);
            }
            let (was_violating, n_rem) = (g.violating, g.classes.len());
            if n_rem == 0 {
                // An empty group carries no information: future inserts
                // will re-query. Dropping it keeps state proportional to
                // the live fragment.
                self.state[c].remove(&kd);
            }
            if !was_violating {
                continue; // deletions never create violations
            }
            // t was a violation; it leaves V in every remaining case.
            unmark(v, dv, cid, tid);
            if !class_empty || n_rem >= 2 {
                // Same-RHS witness survives or ≥2 local RHS values
                // remain: global multiplicity still ≥ 2. Zero shipment —
                // Example 2(2).
                continue;
            }
            if local_only {
                // Global = local: the group dropped to ≤ 1 RHS value.
                self.clear_group(cid, kd, v, dv);
                continue;
            }
            queries.push(cid);
        }
        self.fragment.delete(tid)?;
        if queries.is_empty() {
            return Ok(None);
        }
        let round = Round {
            peers: self.peers(cfg, queries.iter()),
            attrs: cfg.attrs(&queries, &[]),
            cached: None,
            kind: RoundKind::DelQuery {
                global: queries.iter().map(|&c| (c, FxHashSet::default())).collect(),
                holders: queries.iter().map(|&c| (c, Vec::new())).collect(),
                queries,
            },
        };
        if round.peers.is_empty() {
            // No peer holds relevant data: decide from local state alone.
            let clears = self.close(cfg, t, round, v, dv);
            debug_assert!(clears.is_empty(), "no peers, no remote holders");
            return Ok(None);
        }
        Ok(Some(round))
    }

    /// Attribute digests of a request's payload, resolved through the
    /// `src → me` link's own receiver state (fed only by received deltas).
    fn digests(
        &mut self,
        src: SiteId,
        attrs: &[(AttrId, WireValue)],
    ) -> Result<FxHashMap<AttrId, Digest>, DetectError> {
        let rx = &mut self.rx[src];
        Ok(attrs
            .iter()
            .map(|(a, w)| Ok((*a, rx.digest(w)?)))
            .collect::<Result<_, ClusterError>>()?)
    }

    /// Serve a peer's request — a probe, a delete query or a clear —
    /// returning the reply to send back, or `None` for a silent round.
    pub(crate) fn serve(
        &mut self,
        cfg: &SiteConfig,
        codec: &mut dyn PayloadCodec,
        src: SiteId,
        msg: HorMsg,
        v: &mut Violations,
        dv: &mut DeltaV,
    ) -> Result<Option<HorMsg>, DetectError> {
        let mut kbuf = std::mem::take(&mut self.kbuf);
        let reply = match msg {
            HorMsg::TupleProbe { attrs, probes } => {
                let digests = self.digests(src, &attrs)?;
                // Explicit probes: a brand-new conflict at the sender
                // flips every remote group of the CFD.
                for &c in &probes {
                    let kd = key_from_wire(&cfg.cfds[c as usize], &digests, &mut kbuf);
                    if let Some(h) = self.state[c as usize].get_mut(&kd) {
                        if !h.violating {
                            h.violating = true;
                            for m in h.members() {
                                mark(v, dv, c, m);
                            }
                        }
                    }
                }
                // Implicit queries: every other derivable variable CFD,
                // one key digest per distinct LHS.
                let mut conflicts: Vec<CfdId> = Vec::new();
                for (lhs, ids) in cfg.plan.key_groups() {
                    if !lhs.iter().all(|a| digests.contains_key(a)) {
                        continue;
                    }
                    let kd = key_digest_from(lhs.iter().map(|a| digests[a]), &mut kbuf);
                    for &cid in ids {
                        let c = cid as usize;
                        let Some(&bd) = digests.get(&cfg.cfds[c].rhs) else {
                            continue;
                        };
                        // Pattern check through precomputed atom digests.
                        if probes.contains(&cid)
                            || !cfg.atom_digests[c].iter().all(|(a, d)| digests[a] == *d)
                        {
                            continue;
                        }
                        let Some(h) = self.state[c].get_mut(&kd) else {
                            continue;
                        };
                        if !h.violating && h.classes.keys().any(|&k| k != bd) {
                            h.violating = true;
                            for m in h.members() {
                                mark(v, dv, cid, m);
                            }
                        }
                        if h.violating {
                            conflicts.push(cid);
                        }
                    }
                }
                (!conflicts.is_empty()).then_some(HorMsg::ProbeReply { conflicts })
            }
            HorMsg::TupleDelQuery { attrs, queries } => {
                // Report the group's distinct local RHS values per CFD.
                let digests = self.digests(src, &attrs)?;
                // (A live group always holds at least one class.)
                let mut bvals: Vec<(CfdId, Vec<WireValue>)> = Vec::new();
                for c in queries {
                    let kd = key_from_wire(&cfg.cfds[c as usize], &digests, &mut kbuf);
                    if let Some(h) = self.state[c as usize].get(&kd) {
                        let vs = h.classes.values();
                        bvals.push((
                            c,
                            vs.map(|cls| codec.encode(self.me, src, &cls.raw_b))
                                .collect(),
                        ));
                    }
                }
                (!bvals.is_empty()).then_some(HorMsg::DelReply { bvals })
            }
            HorMsg::ClearFlags { attrs, cfds } => {
                // The groups no longer violate anywhere. Clears never
                // carry a payload back: always a silent round.
                let digests = self.digests(src, &attrs)?;
                for c in cfds {
                    let kd = key_from_wire(&cfg.cfds[c as usize], &digests, &mut kbuf);
                    self.clear_group(c, kd, v, dv);
                }
                None
            }
            HorMsg::ProbeReply { .. } | HorMsg::DelReply { .. } => {
                return Err(proto(format!("site {src} sent a reply as a request")));
            }
        };
        self.kbuf = kbuf;
        Ok(reply)
    }

    /// Fold one peer's reply into the round it answers.
    pub(crate) fn fold(
        &mut self,
        src: SiteId,
        reply: HorMsg,
        round: &mut Round,
    ) -> Result<(), DetectError> {
        match (&mut round.kind, reply) {
            (RoundKind::Probe { conflicting, .. }, HorMsg::ProbeReply { conflicts }) => {
                conflicting.extend(conflicts);
            }
            (
                RoundKind::DelQuery {
                    global, holders, ..
                },
                HorMsg::DelReply { bvals },
            ) => {
                for (c, vs) in bvals {
                    holders
                        .get_mut(&c)
                        .ok_or_else(|| proto("reply names an unqueried CFD"))?
                        .push(src);
                    let set = global.get_mut(&c).expect("holders and global share keys");
                    for v in vs {
                        set.insert(self.rx[src].digest(&v)?);
                    }
                }
            }
            _ => return Err(proto("reply type does not match the outstanding round")),
        }
        Ok(())
    }

    /// Decide a round once every reply is in. An insert marks `t` under
    /// the queried CFDs some peer found conflicting. A delete clears the
    /// groups left with fewer than two RHS values across the mesh, and
    /// returns the clear lists to send, one per peer holding members,
    /// ascending by peer.
    pub(crate) fn close(
        &mut self,
        cfg: &SiteConfig,
        t: &Tuple,
        round: Round,
        v: &mut Violations,
        dv: &mut DeltaV,
    ) -> Vec<(SiteId, Vec<CfdId>)> {
        let (mut vbuf, mut kbuf) = (
            std::mem::take(&mut self.vbuf),
            std::mem::take(&mut self.kbuf),
        );
        let mut clears: FxHashMap<SiteId, Vec<CfdId>> = FxHashMap::default();
        match round.kind {
            RoundKind::Probe {
                queries,
                conflicting,
                ..
            } => {
                for c in queries.into_iter().filter(|c| conflicting.contains(c)) {
                    let kd = key_of(&cfg.cfds[c as usize], t, &mut vbuf, &mut kbuf);
                    self.state[c as usize]
                        .get_mut(&kd)
                        .expect("group created during insert")
                        .violating = true;
                    mark(v, dv, c, t.tid);
                }
            }
            RoundKind::DelQuery {
                queries,
                mut global,
                holders,
            } => {
                for c in queries {
                    let kd = key_of(&cfg.cfds[c as usize], t, &mut vbuf, &mut kbuf);
                    let mut all = global.remove(&c).expect("queried cfd");
                    if let Some(h) = self.state[c as usize].get(&kd) {
                        all.extend(h.classes.keys().copied());
                    }
                    if all.len() >= 2 {
                        continue; // still violating everywhere
                    }
                    self.clear_group(c, kd, v, dv);
                    for &j in &holders[&c] {
                        clears.entry(j).or_default().push(c);
                    }
                }
            }
        }
        self.vbuf = vbuf;
        self.kbuf = kbuf;
        let mut clears: Vec<(SiteId, Vec<CfdId>)> = clears.into_iter().collect();
        clears.sort_unstable_by_key(|&(j, _)| j);
        clears
    }

    /// The `ClearFlags` request telling peer `dst` to clear its groups of
    /// `t` under `cfds`.
    pub(crate) fn clear_request(
        &self,
        cfg: &SiteConfig,
        codec: &mut dyn PayloadCodec,
        t: &Tuple,
        dst: SiteId,
        cfds: Vec<CfdId>,
    ) -> HorMsg {
        HorMsg::ClearFlags {
            attrs: encode(codec, t, &cfg.attrs(&cfds, &[]), self.me, dst),
            cfds,
        }
    }

    /// Clear the violating flag of a local group, removing its members
    /// from `V` (drops empty groups).
    fn clear_group(&mut self, cfd: CfdId, kd: Digest, v: &mut Violations, dv: &mut DeltaV) {
        let groups = &mut self.state[cfd as usize];
        if let Some(h) = groups.get_mut(&kd) {
            h.violating = false;
            for m in h.members() {
                unmark(v, dv, cfd, m);
            }
            if h.classes.is_empty() {
                groups.remove(&kd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deleting_a_tuple_without_group_state_is_an_invariant_error() {
        let schema = Schema::new("R", &["id", "a", "b"], "id").unwrap();
        let cfds = vec![Cfd::from_names(0, &schema, &[("a", None)], ("b", None)).unwrap()];
        let scheme = HorizontalScheme::by_hash(schema.clone(), 0, 2).unwrap();
        let cfg = SiteConfig::new(schema, cfds, &scheme);
        let mut core = SiteCore::new(&cfg, 0, 2);
        // The tuple was never inserted, so its group does not exist.
        let t = Tuple::new(7, vec![Value::int(7), Value::int(1), Value::int(2)]);
        let keyed = core.dispatch(&cfg, &t);
        let (mut v, mut dv) = (Violations::new(1), DeltaV::default());
        let err = core.delete(&cfg, &t, &keyed, &mut v, &mut dv).err();
        assert!(matches!(
            err,
            Some(DetectError::Invariant(MarkError { rule: 0, tid: 7 }))
        ));
    }
}
