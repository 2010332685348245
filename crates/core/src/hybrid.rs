//! Hybrid partitions — the paper's §8 future-work item *"we also intend to
//! extend our algorithms to data that is partitioned both vertically and
//! horizontally"*, implemented as a composition of the two detectors.
//!
//! Layout: the relation is first split **horizontally** into *regions*;
//! within each region the fragment is split **vertically** over that
//! region's sub-sites (every sub-site keeps the key, as in §2.2).
//!
//! Detection composes the two protocols:
//!
//! * **Inter-region**, the §6 horizontal machinery runs between region
//!   *gateways* (one designated sub-site per region), treating each region
//!   as one logical site — group states, the global-multiplicity
//!   invariant, MD5 digests, broadcast/query/clear rounds.
//! * **Intra-region**, handling an update requires assembling the digest
//!   of `t[X]`/`t[B]` at the gateway from the sub-sites that hold the
//!   attributes: each contributing sub-site ships one digest-bearing
//!   message per update (per-attribute MD5 codes, 16 bytes each), the
//!   vertical analogue of the §4 eqid walk. Constant CFDs evaluate their
//!   atoms at the owning sub-sites and ship candidate tids, as in `incVer`
//!   lines 4–10.
//!
//! Costs therefore stay `O(|ΔD| + |ΔV|)`: O(1) intra-region messages per
//! update per CFD plus the `O(n)` worst-case inter-region rounds of §6.

use crate::detector::{DetectError, Detector};
use crate::horizontal::HorizontalDetector;
use crate::optimize::SharingMode;
use cfd::{Cfd, CfdId, DeltaV, MatchScratch, Violations};
use cluster::codec::CodecKind;
use cluster::md5::Digest;
use cluster::net::TransportKind;
use cluster::partition::{HorizontalScheme, VerticalScheme};
use cluster::{ClusterError, NetStats, Network, SiteId, Wire};
use relation::{AttrId, FxHashSet, RelError, Relation, Schema, Tuple, Update, UpdateBatch};
use std::sync::Arc;

/// A hybrid partition scheme: horizontal regions, each vertically split.
#[derive(Debug, Clone)]
pub struct HybridScheme {
    /// The region-level horizontal split.
    pub regions: HorizontalScheme,
    /// Per region, the vertical scheme of its sub-sites.
    pub verticals: Vec<VerticalScheme>,
}

impl HybridScheme {
    /// Build and validate: one vertical scheme per region, all over the
    /// same global schema.
    pub fn new(
        regions: HorizontalScheme,
        verticals: Vec<VerticalScheme>,
    ) -> Result<Self, ClusterError> {
        if verticals.len() != regions.n_sites() {
            return Err(ClusterError::BadScheme(format!(
                "{} regions but {} vertical schemes",
                regions.n_sites(),
                verticals.len()
            )));
        }
        for v in &verticals {
            if v.schema() != regions.schema() {
                return Err(ClusterError::BadScheme(
                    "vertical scheme over a different schema".into(),
                ));
            }
        }
        Ok(HybridScheme { regions, verticals })
    }

    /// Uniform construction: `n_regions` hash-partitioned regions, each
    /// vertically round-robin split over `subsites` sub-sites.
    pub fn uniform(
        schema: Arc<Schema>,
        n_regions: usize,
        subsites: usize,
    ) -> Result<Self, ClusterError> {
        let regions = HorizontalScheme::by_hash(schema.clone(), schema.key(), n_regions)?;
        let verticals = (0..n_regions)
            .map(|_| VerticalScheme::round_robin(schema.clone(), subsites))
            .collect::<Result<Vec<_>, _>>()?;
        HybridScheme::new(regions, verticals)
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.regions.n_sites()
    }

    /// Total number of physical sites (sum of sub-sites).
    pub fn n_sites(&self) -> usize {
        self.verticals.iter().map(VerticalScheme::n_sites).sum()
    }

    /// Global site id of sub-site `sub` within `region`.
    pub fn global_site(&self, region: usize, sub: usize) -> SiteId {
        self.verticals[..region]
            .iter()
            .map(VerticalScheme::n_sites)
            .sum::<usize>()
            + sub
    }

    /// The gateway sub-site of a region (its first sub-site).
    pub fn gateway(&self, region: usize) -> SiteId {
        self.global_site(region, 0)
    }
}

/// Intra-region assembly payloads.
#[derive(Debug, Clone)]
enum AsmMsg {
    /// Per-attribute MD5 digests shipped to the gateway.
    Digests(u32),
    /// Candidate tid for a constant CFD atom check.
    Cand,
}

impl Wire for AsmMsg {
    fn wire_size(&self) -> usize {
        match self {
            AsmMsg::Digests(n) => Digest::WIRE_SIZE * (*n as usize),
            AsmMsg::Cand => 8,
        }
    }
}

/// The hybrid detector: §6 between regions, digest assembly within them.
pub struct HybridDetector {
    scheme: HybridScheme,
    /// Inter-region protocol (regions as logical sites).
    inner: HorizontalDetector,
    /// Intra-region assembly traffic (global physical site ids).
    intra: Network<AsmMsg>,
    /// Per (region, sub-site) vertical fragments.
    fragments: Vec<Vec<Relation>>,
    /// Variable CFDs' attribute sets, precomputed.
    var_attrs: Vec<Option<Vec<AttrId>>>,
    /// Constant CFDs' atom attributes, precomputed.
    const_attrs: Vec<Option<Vec<AttrId>>>,
    /// Reusable scratch for the per-update needed-attribute union.
    needed_buf: FxHashSet<AttrId>,
    /// Reusable scratch for the shared dispatch pass.
    scratch: MatchScratch,
    /// Reusable buffer holding the dispatch hit list of one update.
    hits_buf: Vec<CfdId>,
    /// Multi-CFD evaluation mode for the assembly metering (the inner
    /// inter-region detector keeps its own copy, set in lockstep).
    sharing: SharingMode,
}

impl HybridDetector {
    /// Build over `d`, loading fragments and the inter-region state
    /// (unmetered, like the other detectors). Ships MD5 digests between
    /// region gateways — see [`HybridDetector::with_codec`].
    pub fn new(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HybridScheme,
        d: &Relation,
    ) -> Result<Self, DetectError> {
        Self::with_codec(schema, cfds, scheme, d, CodecKind::Md5)
    }

    /// Build with an explicit wire codec for the inter-region §6 protocol
    /// (intra-region assembly always ships fixed-size digests). Runs on
    /// the simulated network; see [`HybridDetector::with_session`].
    pub fn with_codec(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HybridScheme,
        d: &Relation,
        codec: CodecKind,
    ) -> Result<Self, DetectError> {
        Self::with_session(schema, cfds, scheme, d, codec, TransportKind::Simulated)
    }

    /// Build a full session: inter-region codec **and** transport. The
    /// §6 protocol between region gateways rides the chosen substrate —
    /// real byte frames for [`TransportKind::Framed`]/[`TransportKind::Tcp`]
    /// — while intra-region digest assembly stays on the modeled network
    /// (its messages are fixed-size digest bundles; the gateway rounds
    /// are where the codec and transport decisions matter).
    pub fn with_session(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HybridScheme,
        d: &Relation,
        codec: CodecKind,
        transport: TransportKind,
    ) -> Result<Self, DetectError> {
        let inner = HorizontalDetector::with_session(
            schema.clone(),
            cfds.clone(),
            scheme.regions.clone(),
            d,
            codec,
            transport,
        )?;
        let mut fragments: Vec<Vec<Relation>> = Vec::with_capacity(scheme.n_regions());
        let region_frags = scheme.regions.partition(d).map_err(DetectError::Cluster)?;
        for (r, frag) in region_frags.iter().enumerate() {
            fragments.push(scheme.verticals[r].partition(frag));
        }
        let var_attrs = cfds
            .iter()
            .map(|c| c.is_variable().then(|| c.attrs()))
            .collect();
        let const_attrs = cfds
            .iter()
            .map(|c| {
                c.is_constant().then(|| {
                    c.constant_atoms()
                        .into_iter()
                        .map(|(a, _)| a)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        Ok(HybridDetector {
            intra: Network::new(scheme.n_sites()),
            scheme,
            inner,
            fragments,
            var_attrs,
            const_attrs,
            needed_buf: FxHashSet::default(),
            scratch: MatchScratch::default(),
            hits_buf: Vec::new(),
            sharing: SharingMode::default(),
        })
    }

    /// Current multi-CFD evaluation mode.
    pub fn sharing_mode(&self) -> SharingMode {
        self.sharing
    }

    /// Select the multi-CFD evaluation mode for both the intra-region
    /// assembly metering and the inner inter-region §6 protocol. Both
    /// modes meter and detect bit-identically.
    pub fn set_sharing(&mut self, mode: SharingMode) {
        self.sharing = mode;
        self.inner.set_sharing(mode);
    }

    /// Current violation set.
    pub fn violations(&self) -> &Violations {
        self.inner.violations()
    }

    /// The global schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    /// Reset both traffic meters.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.intra.reset_stats();
    }

    /// Inter-region traffic (the §6 protocol).
    pub fn inter_stats(&self) -> NetStats {
        self.inner.stats()
    }

    /// Intra-region assembly traffic.
    pub fn intra_stats(&self) -> &NetStats {
        self.intra.stats()
    }

    /// Total shipped bytes, inter + intra.
    pub fn total_bytes(&self) -> u64 {
        self.inner.stats().total_bytes() + self.intra.stats().total_bytes()
    }

    /// The rule set.
    pub fn cfds(&self) -> &[Cfd] {
        self.inner.cfds()
    }

    /// The logical relation.
    pub fn current(&self) -> &Relation {
        self.inner.current()
    }

    /// Fragment of `sub` within `region`.
    pub fn fragment(&self, region: usize, sub: usize) -> &Relation {
        &self.fragments[region][sub]
    }

    /// Apply a batch update, metering intra-region assembly and running
    /// the inter-region §6 protocol.
    pub fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = delta.normalize(self.inner.current());
        // Meter assembly and maintain sub-fragments per op.
        for op in delta.ops() {
            match op {
                Update::Insert(t) => {
                    let region = self.scheme.regions.route(t).map_err(DetectError::Cluster)?;
                    self.meter_assembly(region, t)?;
                    let vs = &self.scheme.verticals[region];
                    for sub in 0..vs.n_sites() {
                        self.fragments[region][sub]
                            .insert(t.project(vs.attrs_of(sub)))
                            .map_err(DetectError::Rel)?;
                    }
                }
                Update::Delete(tid) => {
                    let t = self
                        .inner
                        .current()
                        .get(*tid)
                        .ok_or(DetectError::Rel(RelError::MissingTid(*tid)))?;
                    let region = self
                        .scheme
                        .regions
                        .route(&t)
                        .map_err(DetectError::Cluster)?;
                    self.meter_assembly(region, &t)?;
                    for frag in &mut self.fragments[region] {
                        frag.delete(*tid).map_err(DetectError::Rel)?;
                    }
                }
            }
        }
        self.inner.apply(&delta)
    }

    /// Assembly cost of one update at its region: every sub-site holding
    /// relevant attributes (other than the gateway) ships one message —
    /// per-attribute digests for the variable CFDs the tuple matches, a
    /// candidate tid per matched constant CFD.
    fn meter_assembly(&mut self, region: usize, t: &Tuple) -> Result<(), DetectError> {
        // Digest attributes needed by matching variable CFDs (reused
        // buffer — no per-update set allocation).
        let mut needed = std::mem::take(&mut self.needed_buf);
        needed.clear();
        match self.sharing {
            SharingMode::PerCfd => {
                for (c, attrs) in self.var_attrs.iter().enumerate() {
                    if let Some(attrs) = attrs {
                        if self.inner.cfds()[c].matches_lhs(t) {
                            needed.extend(attrs.iter().copied());
                        }
                    }
                }
                // One digest message per contributing non-gateway sub-site.
                let result = self.meter_assembly_inner(region, t, &needed, None);
                self.needed_buf = needed;
                result
            }
            SharingMode::Shared => {
                // One dispatch pass serves both the variable-attribute
                // union here and the constant-candidate shipping below.
                let mut hits = std::mem::take(&mut self.hits_buf);
                hits.clear();
                {
                    let plan = Arc::clone(self.inner.shared_plan());
                    hits.extend_from_slice(plan.matched(t, &mut self.scratch));
                }
                for &cid in &hits {
                    if let Some(attrs) = &self.var_attrs[cid as usize] {
                        needed.extend(attrs.iter().copied());
                    }
                }
                let result = self.meter_assembly_inner(region, t, &needed, Some(&hits));
                self.needed_buf = needed;
                self.hits_buf = hits;
                result
            }
        }
    }

    fn meter_assembly_inner(
        &mut self,
        region: usize,
        t: &Tuple,
        needed: &FxHashSet<AttrId>,
        matched: Option<&[CfdId]>,
    ) -> Result<(), DetectError> {
        let vs = &self.scheme.verticals[region];
        let gateway = self.scheme.gateway(region);
        for sub in 0..vs.n_sites() {
            let gsite = self.scheme.global_site(region, sub);
            if gsite == gateway {
                continue;
            }
            let held: u32 = needed
                .iter()
                .filter(|&&a| vs.local_pos(sub, a).is_some() && vs.primary_site(a) == sub)
                .count() as u32;
            if held > 0 {
                self.intra
                    .ship(gsite, gateway, &AsmMsg::Digests(held))
                    .map_err(DetectError::Cluster)?;
            }
        }
        // Constant CFDs: candidate tids from atom-owning sub-sites. The
        // dispatch hit list (ascending by id, like the loop) replaces the
        // per-CFD `matches_lhs` scan when the shared plan ran.
        match matched {
            None => {
                for (c, attrs) in self.const_attrs.iter().enumerate() {
                    if let Some(attrs) = attrs {
                        let cfd = &self.inner.cfds()[c];
                        if !cfd.matches_lhs(t) {
                            continue;
                        }
                        for &a in attrs {
                            let sub = vs.primary_site(a);
                            let gsite = self.scheme.global_site(region, sub);
                            if gsite != gateway {
                                self.intra
                                    .ship(gsite, gateway, &AsmMsg::Cand)
                                    .map_err(DetectError::Cluster)?;
                            }
                        }
                    }
                }
            }
            Some(hits) => {
                for &cid in hits {
                    if let Some(attrs) = &self.const_attrs[cid as usize] {
                        for &a in attrs {
                            let sub = vs.primary_site(a);
                            let gsite = self.scheme.global_site(region, sub);
                            if gsite != gateway {
                                self.intra
                                    .ship(gsite, gateway, &AsmMsg::Cand)
                                    .map_err(DetectError::Cluster)?;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Detector for HybridDetector {
    fn strategy(&self) -> &'static str {
        "incHyb"
    }

    fn schema(&self) -> &Arc<Schema> {
        HybridDetector::schema(self)
    }

    fn cfds(&self) -> &[Cfd] {
        HybridDetector::cfds(self)
    }

    fn current(&self) -> &Relation {
        HybridDetector::current(self)
    }

    fn violations(&self) -> &Violations {
        HybridDetector::violations(self)
    }

    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        HybridDetector::apply(self, delta)
    }

    fn net(&self) -> cluster::NetReport {
        let report = cluster::NetReport::two_tier(self.inner.stats(), self.intra.stats().clone())
            .with_codec(self.inner.codec_kind().name());
        match self.inner.wire_stats() {
            Some(wire) => report.with_measured(wire),
            None => report,
        }
    }

    fn reset_stats(&mut self) {
        HybridDetector::reset_stats(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Tid, Value};

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["id", "a", "b", "c", "d"], "id").unwrap()
    }

    fn tup(tid: Tid, a: i64, b: i64, c: i64, d: i64) -> Tuple {
        Tuple::new(
            tid,
            vec![
                Value::int(tid as i64),
                Value::int(a),
                Value::int(b),
                Value::int(c),
                Value::int(d),
            ],
        )
    }

    fn base(n: usize) -> Relation {
        let s = schema();
        let mut r = Relation::new(s);
        for i in 0..n as u64 {
            r.insert(tup(
                i,
                (i % 5) as i64,
                (i % 3) as i64,
                (i % 7) as i64,
                (i % 2) as i64,
            ))
            .unwrap();
        }
        r
    }

    fn cfds(s: &Schema) -> Vec<Cfd> {
        vec![
            Cfd::from_names(0, s, &[("a", None), ("b", None)], ("c", None)).unwrap(),
            Cfd::from_names(
                1,
                s,
                &[("a", Some(Value::int(1)))],
                ("d", Some(Value::int(1))),
            )
            .unwrap(),
        ]
    }

    fn detector(n: usize) -> HybridDetector {
        let s = schema();
        let scheme = HybridScheme::uniform(s.clone(), 3, 2).unwrap();
        HybridDetector::new(s.clone(), cfds(&s), scheme, &base(n)).unwrap()
    }

    #[test]
    fn scheme_validation() {
        let s = schema();
        let regions = HorizontalScheme::by_hash(s.clone(), 0, 2).unwrap();
        let one_vertical = vec![VerticalScheme::round_robin(s.clone(), 2).unwrap()];
        assert!(matches!(
            HybridScheme::new(regions, one_vertical),
            Err(ClusterError::BadScheme(_))
        ));
        let ok = HybridScheme::uniform(s, 3, 2).unwrap();
        assert_eq!(ok.n_regions(), 3);
        assert_eq!(ok.n_sites(), 6);
        assert_eq!(ok.gateway(0), 0);
        assert_eq!(ok.gateway(1), 2);
        assert_eq!(ok.global_site(2, 1), 5);
    }

    #[test]
    fn initial_violations_match_oracle() {
        let det = detector(60);
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        assert!(!det.violations().is_empty(), "workload has conflicts");
    }

    #[test]
    fn updates_match_oracle_and_meter_both_layers() {
        let mut det = detector(60);
        let mut delta = UpdateBatch::new();
        delta.insert(tup(100, 1, 1, 99, 0)); // conflicts on (a,b)=(1,1)
        delta.insert(tup(101, 1, 1, 98, 1));
        delta.delete(7);
        delta.delete(22);
        let dv = det.apply(&delta).unwrap();
        assert!(!dv.is_empty());
        let oracle = cfd::naive::detect(det.cfds(), det.current());
        assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        assert!(
            det.intra_stats().total_bytes() > 0,
            "digest assembly must be metered"
        );
    }

    #[test]
    fn fragments_stay_consistent() {
        let mut det = detector(30);
        let mut delta = UpdateBatch::new();
        delta.insert(tup(200, 2, 2, 2, 0));
        delta.delete(5);
        det.apply(&delta).unwrap();
        // Every live tuple appears in exactly one region, projected over
        // all of that region's sub-sites.
        let total: usize = (0..det.scheme.n_regions())
            .map(|r| det.fragment(r, 0).len())
            .sum();
        assert_eq!(total, det.current().len());
        for r in 0..det.scheme.n_regions() {
            for sub in 1..det.scheme.verticals[r].n_sites() {
                assert_eq!(det.fragment(r, sub).len(), det.fragment(r, 0).len());
            }
        }
        assert!(
            det.fragment(0, 0).get(200).is_some()
                || det.fragment(1, 0).get(200).is_some()
                || det.fragment(2, 0).get(200).is_some()
        );
    }

    #[test]
    fn sequential_batches_stay_correct() {
        let mut det = detector(40);
        for round in 0..5u64 {
            let mut delta = UpdateBatch::new();
            delta.insert(tup(300 + round, (round % 4) as i64, 1, round as i64, 0));
            if det.current().contains(round * 3) {
                delta.delete(round * 3);
            }
            det.apply(&delta).unwrap();
            let oracle = cfd::naive::detect(det.cfds(), det.current());
            assert_eq!(det.violations().marks_sorted(), oracle.marks_sorted());
        }
    }
}
