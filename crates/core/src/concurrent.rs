//! Truly concurrent horizontal detection: one unit of execution per site.
//!
//! The §6 protocol's per-site state and case analysis live once, in
//! [`crate::site`]'s `SiteCore`. [`crate::HorizontalDetector`] drives every
//! site's core from one thread, round by round. This module drives the
//! same cores — same [`HorMsg`] frames, same codecs, bit-identical
//! modeled `|M|` — with each site as a real OS thread
//! ([`ConcurrentHorizontal::threaded`]) or a real OS process
//! ([`ConcurrentHorizontal::distributed`] plus the `site` binary in the
//! bench crate), communicating **only** via byte frames over a
//! [`cluster::run::Node`] mesh. No detector state is shared: each
//! [`SiteRunner`] owns one core (fragment, per-CFD group state,
//! receiver-side codec state), its slice of `V` and its codec, exactly as
//! the paper's EC2 deployment would. What this module adds is only the
//! control flow a real mesh needs: waves, in-flight rounds, owed and
//! piggybacked acks, the coordinator and result collection.
//!
//! # Wave-parallel scheduling
//!
//! A batch is deterministic only if conflicting updates never race. The
//! coordinator (site 0 — just another site that also happens to own the
//! batch) assigns every normalized update a **wave**: the footprint of an
//! update is the set of `(CFD, group-key digest)` pairs it can touch
//! anywhere in the mesh (the implicit-query walk only ever reads groups
//! keyed by the probing tuple's own digests), plus its tid (a
//! modification normalizes to `delete(t); insert(t')` of the same tid).
//! An update lands in the first wave after every conflicting predecessor.
//! Within a wave, footprints are disjoint, so sites fire *all* their
//! probes up front and serve peers while their own rounds are in flight —
//! on a single core this pipelining is what turns per-frame context
//! switches into per-wave context switches, which is where the measured
//! speedup over the sequential TCP drive comes from.
//!
//! Wave barriers, op shipment, acks and result collection ride on
//! [`CtrlMsg`] frames, which are wire-metered but contribute **zero**
//! modeled `|M|` ([`Node::send_ctrl`]): the model meters the detection
//! protocol, not the harness that schedules it. The differential suite
//! asserts threaded, multi-process and sequential drives agree on
//! violations, `ΔV` *and* the full per-link modeled byte matrix.
//!
//! # Piggybacked cumulative acks, flushed on idle
//!
//! Pipelining needs every round closed eventually, but a per-round ack
//! frame for each silent request is pure overhead when several rounds
//! could share one. A serving site therefore *accumulates* an owed-ack
//! counter per requesting peer and closes many silent rounds at once,
//! over two vehicles. While traffic flows, the count rides for free:
//! every outbound protocol frame towards a peer with a non-zero owed
//! counter is wrapped in a [`RtFrame::Piggy`] envelope (5 structural
//! bytes; the carried message's modeled `|M|` is untouched) whose
//! cumulative ack pops the `k` oldest outstanding rounds at the
//! receiver *before* the payload is matched — the owed rounds are
//! strictly older, so FIFO reply matching is preserved by construction.
//! When the inbox goes quiet — [`Node::try_recv`] finds nothing and the
//! site is about to block — all owed counters flush as one standalone
//! frame per peer ([`CtrlMsg::Ack`] for a single round, the same six
//! wire bytes a per-round scheme pays; [`CtrlMsg::AckN`] when several
//! rounds batch up). Because every site flushes *before* it blocks, a
//! cycle of sites each waiting on the other's acks cannot form, and no
//! demand/poll round-trip is ever needed.

use crate::detector::{DetectError, Detector};
use crate::horizontal::HorMsg;
use crate::site::{proto, Round, SiteConfig, SiteCore};
use cfd::{Cfd, CfdId, DeltaV, Violations};
use cluster::codec::{CodecKind, PayloadCodec};
use cluster::md5::Digest;
use cluster::net::{bytes as wirefmt, decode_body, FrameCodec, TransportKind};
use cluster::partition::HorizontalScheme;
use cluster::run::{self, Node};
use cluster::{ClusterError, NetReport, NetStats, SiteId, TransportMeter, Wire};
use relation::{FxHashMap, RelError, Relation, Schema, Tid, Tuple, Update, UpdateBatch, Value};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The coordinator's site id. It is an ordinary site that additionally
/// owns batch admission, wave barriers and result collection.
pub const COORD: SiteId = 0;

/// In-flight ops per site within a wave. Bounds peak buffering; the
/// window never deadlocks because reader threads always drain sockets
/// into unbounded inboxes.
const WINDOW: usize = 128;

// ---------------------------------------------------------------------
// Control frames (wire-metered, zero modeled |M|)
// ---------------------------------------------------------------------

const CT_ACK: u8 = 0x80;
const CT_OPS: u8 = 0x81;
const CT_DONE: u8 = 0x82;
const CT_ADVANCE: u8 = 0x83;
const CT_COLLECT: u8 = 0x84;
const CT_RESULT: u8 = 0x85;
const CT_SHUTDOWN: u8 = 0x86;
const CT_ACK_N: u8 = 0x87;
/// Piggyback envelope: `[tag][owed acks: u32][protocol frame]`.
const CT_PIGGY: u8 = 0x89;

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;

/// One normalized update, shipped to its home site.
#[derive(Debug, Clone, PartialEq)]
pub enum OpWire {
    /// Insert a tuple (tid + full row).
    Insert(Tid, Vec<Value>),
    /// Delete a live tuple by tid.
    Delete(Tid),
}

/// A site's meters and `ΔV` slice for one batch, reported to the
/// coordinator at collection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchImage {
    /// Marks this site added (unsettled).
    pub added: Vec<(CfdId, Tid)>,
    /// Marks this site removed (unsettled).
    pub removed: Vec<(CfdId, Tid)>,
    /// Serialized modeled-`|M|` matrix of this site's sends.
    pub stats: Vec<u8>,
    /// Serialized measured on-wire matrix of this site's sends.
    pub wire: Vec<u8>,
    /// Transport counters of this site's sends.
    pub meter: TransportMeter,
}

/// Runtime control traffic: batch shipment, wave barriers, acks,
/// collection, shutdown. All structure — `wire_size() == 0`.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Generic round-closer where the protocol has no payload to reply.
    Ack,
    /// Cumulative ack: closes the `k` *oldest* outstanding rounds the
    /// receiver opened towards us (all served silently on our side).
    /// Never sent with `k == 0`, and never with `k == 1` either — a
    /// single owed round flushes as the smaller [`CtrlMsg::Ack`].
    AckN(u32),
    /// The coordinator ships a site its slice of the batch, wave-tagged.
    Ops {
        /// `(wave, op)` in batch order.
        ops: Vec<(u32, OpWire)>,
        /// Total number of waves in the batch (uniform across sites).
        n_waves: u32,
    },
    /// A site finished its slice of the given wave.
    WaveDone(u32),
    /// The coordinator releases the barrier of the given wave.
    WaveAdvance(u32),
    /// The coordinator asks for the batch image.
    Collect,
    /// A site's batch image.
    BatchResult(Box<BatchImage>),
    /// Tear the site down (end of session).
    Shutdown,
}

impl Wire for CtrlMsg {
    fn wire_size(&self) -> usize {
        0
    }
}

fn put_marks(out: &mut Vec<u8>, marks: &[(CfdId, Tid)]) {
    out.extend_from_slice(&(marks.len() as u32).to_le_bytes());
    for (c, t) in marks {
        out.extend_from_slice(&c.to_le_bytes());
        out.extend_from_slice(&t.to_le_bytes());
    }
}

fn get_marks(r: &mut wirefmt::Reader<'_>) -> Result<Vec<(CfdId, Tid)>, ClusterError> {
    let n = r.u32()? as usize;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let c = r.u32()?;
        let t = r.u64()?;
        v.push((c, t));
    }
    Ok(v)
}

fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn get_blob(r: &mut wirefmt::Reader<'_>) -> Result<Vec<u8>, ClusterError> {
    let n = r.u32()? as usize;
    Ok(r.take(n)?.to_vec())
}

impl FrameCodec for CtrlMsg {
    fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        match self {
            CtrlMsg::Ack => out.push(CT_ACK),
            CtrlMsg::AckN(k) => {
                out.push(CT_ACK_N);
                out.extend_from_slice(&k.to_le_bytes());
            }
            CtrlMsg::Ops { ops, n_waves } => {
                out.push(CT_OPS);
                out.extend_from_slice(&n_waves.to_le_bytes());
                out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for (w, op) in ops {
                    out.extend_from_slice(&w.to_le_bytes());
                    match op {
                        OpWire::Insert(tid, values) => {
                            out.push(OP_INSERT);
                            out.extend_from_slice(&tid.to_le_bytes());
                            out.extend_from_slice(&(values.len() as u16).to_le_bytes());
                            for v in values {
                                wirefmt::put_value(out, v);
                            }
                        }
                        OpWire::Delete(tid) => {
                            out.push(OP_DELETE);
                            out.extend_from_slice(&tid.to_le_bytes());
                        }
                    }
                }
            }
            CtrlMsg::WaveDone(w) => {
                out.push(CT_DONE);
                out.extend_from_slice(&w.to_le_bytes());
            }
            CtrlMsg::WaveAdvance(w) => {
                out.push(CT_ADVANCE);
                out.extend_from_slice(&w.to_le_bytes());
            }
            CtrlMsg::Collect => out.push(CT_COLLECT),
            CtrlMsg::BatchResult(img) => {
                out.push(CT_RESULT);
                put_marks(out, &img.added);
                put_marks(out, &img.removed);
                put_blob(out, &img.stats);
                put_blob(out, &img.wire);
                let m = img.meter;
                for x in [
                    m.frames,
                    m.wire_bytes,
                    m.modeled_bytes,
                    m.structural_bytes,
                    m.saved_bytes,
                ] {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            CtrlMsg::Shutdown => out.push(CT_SHUTDOWN),
        }
        out.len() - start
    }

    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
        let mut r = wirefmt::Reader::new(body);
        let msg = match r.u8()? {
            CT_ACK => CtrlMsg::Ack,
            CT_ACK_N => CtrlMsg::AckN(r.u32()?),
            CT_OPS => {
                let n_waves = r.u32()?;
                let n = r.u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let w = r.u32()?;
                    let op = match r.u8()? {
                        OP_INSERT => {
                            let tid = r.u64()?;
                            let arity = r.u16()? as usize;
                            let mut values = Vec::with_capacity(arity.min(1 << 12));
                            for _ in 0..arity {
                                values.push(wirefmt::get_value(&mut r)?);
                            }
                            OpWire::Insert(tid, values)
                        }
                        OP_DELETE => OpWire::Delete(r.u64()?),
                        t => return Err(ClusterError::Transport(format!("unknown op tag {t:#x}"))),
                    };
                    ops.push((w, op));
                }
                CtrlMsg::Ops { ops, n_waves }
            }
            CT_DONE => CtrlMsg::WaveDone(r.u32()?),
            CT_ADVANCE => CtrlMsg::WaveAdvance(r.u32()?),
            CT_COLLECT => CtrlMsg::Collect,
            CT_RESULT => {
                let added = get_marks(&mut r)?;
                let removed = get_marks(&mut r)?;
                let stats = get_blob(&mut r)?;
                let wire = get_blob(&mut r)?;
                let meter = TransportMeter {
                    frames: r.u64()?,
                    wire_bytes: r.u64()?,
                    modeled_bytes: r.u64()?,
                    structural_bytes: r.u64()?,
                    saved_bytes: r.u64()?,
                };
                CtrlMsg::BatchResult(Box::new(BatchImage {
                    added,
                    removed,
                    stats,
                    wire,
                    meter,
                }))
            }
            CT_SHUTDOWN => CtrlMsg::Shutdown,
            t => return Err(ClusterError::Transport(format!("unknown ctrl tag {t:#x}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Frame dispatcher for a running site: protocol frames ([`HorMsg`],
/// first byte `< 0x80`) and control frames ([`CtrlMsg`], `>= 0x80`)
/// share each inbound link.
#[derive(Debug)]
pub enum RtFrame {
    /// A §6 protocol message.
    Hor(HorMsg),
    /// A runtime control message.
    Ctrl(CtrlMsg),
    /// A §6 protocol message carrying a piggybacked cumulative ack:
    /// close the `k` oldest outstanding rounds towards the sender, then
    /// process the payload. The envelope is pure structure — modeled
    /// `|M|` is the carried message's.
    Piggy(u32, HorMsg),
}

impl Wire for RtFrame {
    fn wire_size(&self) -> usize {
        match self {
            RtFrame::Hor(m) | RtFrame::Piggy(_, m) => m.wire_size(),
            RtFrame::Ctrl(m) => m.wire_size(),
        }
    }
}

impl FrameCodec for RtFrame {
    fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
        match self {
            RtFrame::Hor(m) => m.encode_frame(out),
            RtFrame::Ctrl(m) => m.encode_frame(out),
            RtFrame::Piggy(k, m) => {
                out.push(CT_PIGGY);
                out.extend_from_slice(&k.to_le_bytes());
                m.encode_frame(out) + 5
            }
        }
    }

    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
        match body.first() {
            None => Err(ClusterError::Transport("empty frame body".into())),
            Some(&CT_PIGGY) => {
                let k = body
                    .get(1..5)
                    .ok_or_else(|| ClusterError::Transport("truncated piggyback header".into()))?;
                let k = u32::from_le_bytes(k.try_into().expect("4-byte slice"));
                Ok(RtFrame::Piggy(k, HorMsg::decode_frame(&body[5..])?))
            }
            Some(&t) if t >= 0x80 => Ok(RtFrame::Ctrl(CtrlMsg::decode_frame(body)?)),
            Some(_) => Ok(RtFrame::Hor(HorMsg::decode_frame(body)?)),
        }
    }
}

// ---------------------------------------------------------------------
// The per-site runner
// ---------------------------------------------------------------------

/// What [`SiteRunner::pump`] surfaces to its caller. Requests (probes,
/// del-queries, clears) are served inside `pump` and never surface.
enum Event {
    /// A reply (or ack) from `src` to one of our outstanding rounds.
    Response(SiteId, Response),
    /// Barrier release for the given wave.
    Advance(u32),
    /// Our slice of a new batch.
    Ops(Vec<(u32, OpWire)>, u32),
    /// The coordinator wants our batch image.
    Collect,
    /// A site's batch image (coordinator side).
    Result(BatchImage),
    /// End of session.
    Shutdown,
}

enum Response {
    /// A protocol reply ([`HorMsg::ProbeReply`] or [`HorMsg::DelReply`]).
    Reply(HorMsg),
    Ack,
    /// Cumulative ack: close the `k` oldest outstanding rounds at once.
    AckN(u32),
}

/// What one inbound frame produced: the piggybacked cumulative ack (if
/// any — closes rounds towards `src`, strictly older than whatever the
/// carried payload closes) plus the payload's event.
struct Pumped {
    src: SiteId,
    /// Rounds towards `src` closed by a piggybacked ack count.
    acks: u32,
    event: Option<Event>,
}

/// One outstanding update of the current wave.
enum InFlight {
    /// The probe or delete-query round of the given tuple.
    Round(Tuple, Round),
    /// Clear round of a delete: only acks remain.
    DelClear,
}

struct Pending {
    pending: usize,
    kind: InFlight,
}

/// Reply routing for a pipelined wave. Links are FIFO and peers serve
/// requests in arrival order, so the reply from `src` always belongs to
/// the *oldest* outstanding round we opened towards `src`.
struct WaveState {
    inflight: Vec<Option<Pending>>,
    /// Per peer: outstanding round slots, in send order.
    queues: Vec<VecDeque<usize>>,
    /// Rounds not yet complete.
    open: usize,
}

/// One site of the concurrent runtime: its §6 core, its slice of `V`,
/// its codec, and the frame pump. The same struct runs on a spawned
/// thread (threaded mode), on the caller's thread (site 0), or alone
/// inside a `site` process (multi-process mode).
pub struct SiteRunner {
    cfg: SiteConfig,
    core: SiteCore,
    n: usize,
    node: Node,
    violations: Violations,
    dv: DeltaV,
    codec: Box<dyn PayloadCodec>,
    /// Coordinator only: sites done with the current wave.
    done_count: usize,
    /// Per requesting peer: silently-served rounds not yet acked.
    /// Piggybacked onto the next protocol frame towards that peer
    /// ([`RtFrame::Piggy`]) while traffic flows, flushed as standalone
    /// [`CtrlMsg::Ack`]/[`CtrlMsg::AckN`] frames the moment the inbox
    /// goes idle ([`SiteRunner::flush_owed`]).
    owed: Vec<u32>,
}

impl SiteRunner {
    /// Build a fresh site over its mesh node. Fragments start empty:
    /// initial data flows through the first batch like any other update.
    pub fn new(cfg: SiteConfig, codec: CodecKind, node: Node) -> Self {
        let n = node.n_nodes();
        SiteRunner {
            core: SiteCore::new(&cfg, node.me(), n),
            violations: Violations::new(cfg.cfds.len()),
            dv: DeltaV::default(),
            codec: codec.codec(),
            done_count: 0,
            owed: vec![0; n],
            cfg,
            n,
            node,
        }
    }

    // -- frame pump ----------------------------------------------------

    fn dispatch(&mut self, src: SiteId, method: u8, body: Vec<u8>) -> Result<Pumped, DetectError> {
        let frame: RtFrame = decode_body(method, body).map_err(DetectError::Cluster)?;
        let (acks, event) = match frame {
            RtFrame::Piggy(k, m) => (k, self.on_hor(src, m)?),
            RtFrame::Hor(m) => (0, self.on_hor(src, m)?),
            RtFrame::Ctrl(c) => (0, self.on_ctrl(src, c)?),
        };
        Ok(Pumped { src, acks, event })
    }

    /// Serve a request through the core (a silent round bumps the owed
    /// counter, piggybacked later; a reply carries the owed acks with it
    /// so FIFO matching holds), or surface a reply to our own round.
    fn on_hor(&mut self, src: SiteId, msg: HorMsg) -> Result<Option<Event>, DetectError> {
        if let HorMsg::ProbeReply { .. } | HorMsg::DelReply { .. } = msg {
            return Ok(Some(Event::Response(src, Response::Reply(msg))));
        }
        let (v, dv) = (&mut self.violations, &mut self.dv);
        match self
            .core
            .serve(&self.cfg, self.codec.as_mut(), src, msg, v, dv)?
        {
            Some(reply) => self.send_hor(src, reply)?,
            None => self.owed[src] += 1,
        }
        Ok(None)
    }

    fn on_ctrl(&mut self, src: SiteId, msg: CtrlMsg) -> Result<Option<Event>, DetectError> {
        match msg {
            CtrlMsg::Ack => Ok(Some(Event::Response(src, Response::Ack))),
            CtrlMsg::AckN(k) => Ok(Some(Event::Response(src, Response::AckN(k)))),
            CtrlMsg::WaveDone(_) => {
                self.done_count += 1;
                Ok(None)
            }
            CtrlMsg::WaveAdvance(w) => Ok(Some(Event::Advance(w))),
            CtrlMsg::Ops { ops, n_waves } => Ok(Some(Event::Ops(ops, n_waves))),
            CtrlMsg::Collect => Ok(Some(Event::Collect)),
            CtrlMsg::BatchResult(img) => Ok(Some(Event::Result(*img))),
            CtrlMsg::Shutdown => Ok(Some(Event::Shutdown)),
        }
    }

    /// Take the next frame; serve requests inline, surface everything
    /// else (piggybacked acks included). While the inbox has frames
    /// queued they are drained as-is — owed acks keep accumulating (and
    /// riding piggyback on whatever we send while serving). Only when
    /// the inbox goes idle, *before* blocking, every owed counter is
    /// flushed: nothing else would carry those acks soon, and a peer
    /// may be blocked on exactly them.
    fn pump(&mut self) -> Result<Pumped, DetectError> {
        let (src, method, body) = match self.node.try_recv().map_err(DetectError::Cluster)? {
            Some(frame) => frame,
            None => {
                self.flush_owed()?;
                self.node.recv().map_err(DetectError::Cluster)?
            }
        };
        self.dispatch(src, method, body)
    }

    /// Close every owed silent round with one standalone frame per
    /// peer: the protocol-minimum [`CtrlMsg::Ack`] when a single round
    /// is owed (the common sparse case — same cost as an unbatched
    /// per-round ack), a cumulative [`CtrlMsg::AckN`] when several
    /// batched up.
    fn flush_owed(&mut self) -> Result<(), DetectError> {
        for j in 0..self.n {
            let k = std::mem::take(&mut self.owed[j]);
            match k {
                0 => continue,
                1 => self.node.send_ctrl(j, &CtrlMsg::Ack),
                k => self.node.send_ctrl(j, &CtrlMsg::AckN(k)),
            }
            .map_err(DetectError::Cluster)?;
        }
        Ok(())
    }

    /// Ship a protocol frame towards `dst`, carrying any owed
    /// silent-round acks in a [`RtFrame::Piggy`] envelope. The owed
    /// rounds are strictly older than anything this frame opens or
    /// closes, and the receiver settles the piggybacked count before
    /// matching the payload, so FIFO round matching holds without a
    /// separate [`CtrlMsg::AckN`] frame.
    fn send_hor(&mut self, dst: SiteId, msg: HorMsg) -> Result<(), DetectError> {
        let k = std::mem::take(&mut self.owed[dst]);
        if k == 0 {
            self.node.send(dst, &msg)
        } else {
            self.node.send(dst, &RtFrame::Piggy(k, msg))
        }
        .map_err(DetectError::Cluster)
    }

    /// Run this site's slice of one wave: fire all rounds up front
    /// (windowed), serve peers while they're in flight, fold replies as
    /// they arrive.
    fn run_wave(&mut self, ops: Vec<OpWire>) -> Result<(), DetectError> {
        let mut ws = WaveState {
            inflight: Vec::new(),
            queues: (0..self.n).map(|_| VecDeque::new()).collect(),
            open: 0,
        };
        for op in ops {
            while ws.open >= WINDOW {
                self.step(&mut ws)?;
            }
            self.begin(op, &mut ws)?;
        }
        // Drain: silent rounds close via (piggybacked or flushed) acks,
        // which every peer pushes no later than its next idle moment —
        // and `step`'s own pump flushes what *we* owe before blocking,
        // so two draining sites can never starve each other.
        while ws.open > 0 {
            self.step(&mut ws)?;
        }
        Ok(())
    }

    /// Run the case analysis of one of our own updates through the core,
    /// and open the remote round it leaves, if any: send every peer its
    /// request and park the round until the replies are in.
    fn begin(&mut self, op: OpWire, ws: &mut WaveState) -> Result<(), DetectError> {
        let (v, dv) = (&mut self.violations, &mut self.dv);
        let (t, round) = match op {
            OpWire::Insert(tid, values) => {
                let t = Tuple::new(tid, values);
                let keyed = self.core.dispatch(&self.cfg, &t);
                let round = self.core.insert(&self.cfg, &t, &keyed, v, dv)?;
                (t, round)
            }
            OpWire::Delete(tid) => {
                let t = self
                    .core
                    .fragment
                    .get(tid)
                    .ok_or(RelError::MissingTid(tid))?;
                let keyed = self.core.dispatch(&self.cfg, &t);
                let round = self.core.delete(&self.cfg, &t, &keyed, v, dv)?;
                (t, round)
            }
        };
        let Some(mut round) = round else {
            return Ok(());
        };
        let slot = ws.inflight.len();
        for i in 0..round.peers.len() {
            let j = round.peers[i];
            let msg = round.request(self.codec.as_mut(), &t, self.core.me, j);
            self.send_hor(j, msg)?;
            ws.queues[j].push_back(slot);
        }
        ws.inflight.push(Some(Pending {
            pending: round.peers.len(),
            kind: InFlight::Round(t, round),
        }));
        ws.open += 1;
        Ok(())
    }

    /// Pump one frame and, if it completes rounds, fold them. A
    /// cumulative ack — piggybacked or a standalone
    /// [`Response::AckN`]`(k)` — closes the `k` oldest outstanding
    /// rounds towards `src`; piggybacked acks settle *before* the
    /// carried payload (they cover strictly older rounds).
    fn step(&mut self, ws: &mut WaveState) -> Result<(), DetectError> {
        let p = self.pump()?;
        for _ in 0..p.acks {
            self.settle(p.src, Response::Ack, ws)?;
        }
        let Some(event) = p.event else {
            return Ok(());
        };
        let Event::Response(src, resp) = event else {
            return Err(proto("unexpected control frame mid-wave"));
        };
        if let Response::AckN(k) = resp {
            for _ in 0..k {
                self.settle(src, Response::Ack, ws)?;
            }
            return Ok(());
        }
        self.settle(src, resp, ws)
    }

    /// Fold one reply (or ack) into the oldest outstanding round
    /// towards `src`; once a round has every reply, the core decides it
    /// and any clears it produces go out as a follow-up round.
    fn settle(
        &mut self,
        src: SiteId,
        resp: Response,
        ws: &mut WaveState,
    ) -> Result<(), DetectError> {
        let slot = ws.queues[src]
            .pop_front()
            .ok_or_else(|| proto(format!("reply from site {src} with no outstanding round")))?;
        let p = ws.inflight[slot].as_mut().expect("routed slot is live");
        match (&mut p.kind, resp) {
            (InFlight::Round(_, round), Response::Reply(msg)) => self.core.fold(src, msg, round)?,
            (_, Response::Ack) => {}
            _ => return Err(proto("reply type does not match the outstanding round")),
        }
        p.pending -= 1;
        if p.pending > 0 {
            return Ok(());
        }
        let InFlight::Round(t, round) = ws.inflight[slot].take().expect("routed slot is live").kind
        else {
            ws.open -= 1; // the clear round of a delete is complete
            return Ok(());
        };
        let (v, dv) = (&mut self.violations, &mut self.dv);
        let clears = self.core.close(&self.cfg, &t, round, v, dv);
        if clears.is_empty() {
            ws.open -= 1;
            return Ok(());
        }
        let pending = clears.len();
        for (j, cfds) in clears {
            let msg = self
                .core
                .clear_request(&self.cfg, self.codec.as_mut(), &t, j, cfds);
            self.send_hor(j, msg)?;
            ws.queues[j].push_back(slot);
        }
        ws.inflight[slot] = Some(Pending {
            pending,
            kind: InFlight::DelClear,
        });
        Ok(())
    }

    // -- batch / session loops -----------------------------------------

    /// Run our slice of one batch: per wave, execute our ops, report
    /// done, serve peers until the barrier releases; then report the
    /// batch image when asked.
    fn run_batch(&mut self, ops: Vec<(u32, OpWire)>, n_waves: u32) -> Result<(), DetectError> {
        let mut by_wave: Vec<Vec<OpWire>> = (0..n_waves).map(|_| Vec::new()).collect();
        for (w, op) in ops {
            by_wave
                .get_mut(w as usize)
                .ok_or_else(|| proto("op wave out of range"))?
                .push(op);
        }
        for (w, wave_ops) in by_wave.into_iter().enumerate() {
            self.run_wave(wave_ops)?;
            self.node
                .send_ctrl(COORD, &CtrlMsg::WaveDone(w as u32))
                .map_err(DetectError::Cluster)?;
            loop {
                let p = self.pump()?;
                match (p.acks, p.event) {
                    (0, None) => {}
                    (0, Some(Event::Advance(x))) if x == w as u32 => break,
                    _ => return Err(proto("unexpected frame at a wave barrier")),
                }
            }
        }
        loop {
            let p = self.pump()?;
            match (p.acks, p.event) {
                (0, None) => {}
                (0, Some(Event::Collect)) => break,
                _ => return Err(proto("unexpected frame before collection")),
            }
        }
        let img = BatchImage {
            added: std::mem::take(&mut self.dv.added),
            removed: std::mem::take(&mut self.dv.removed),
            stats: self.node.stats().to_bytes(),
            wire: self.node.wire_stats().to_bytes(),
            meter: self.node.meter(),
        };
        self.node
            .send_ctrl(COORD, &CtrlMsg::BatchResult(Box::new(img)))
            .map_err(DetectError::Cluster)?;
        self.node.reset_stats();
        Ok(())
    }

    /// The site main loop: serve batches until shutdown. This is what a
    /// spawned site thread (or a `site` process) runs. Same idle-flush
    /// discipline as the frame pump: a peer's wave-0 probe can
    /// outrace our own `Ops` frame across links, so rounds served here
    /// must still ack the moment the inbox goes quiet.
    pub fn serve(mut self) -> Result<(), DetectError> {
        loop {
            let (src, method, body) = match self.node.try_recv().map_err(DetectError::Cluster)? {
                Some(frame) => frame,
                None => {
                    self.flush_owed()?;
                    match self.node.recv_opt().map_err(DetectError::Cluster)? {
                        Some(frame) => frame,
                        None => continue, // idle between batches
                    }
                }
            };
            let p = self.dispatch(src, method, body)?;
            match (p.acks, p.event) {
                (0, None) => {}
                (0, Some(Event::Ops(ops, n_waves))) => self.run_batch(ops, n_waves)?,
                (0, Some(Event::Shutdown)) => return Ok(()),
                _ => return Err(proto("unexpected frame while idle")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The coordinator-side detector
// ---------------------------------------------------------------------

/// Run one non-coordinator site of a **multi-process** mesh to
/// completion: join the mesh on fixed localhost ports, serve batches,
/// return on shutdown. The entry point of the bench crate's `site`
/// binary.
pub fn run_site(
    schema: Arc<Schema>,
    cfds: Vec<Cfd>,
    scheme: &HorizontalScheme,
    me: SiteId,
    codec: CodecKind,
    base_port: u16,
) -> Result<(), DetectError> {
    let cfg = SiteConfig::new(schema, cfds, scheme);
    let node = run::join(scheme.n_sites(), me, base_port)
        .map_err(DetectError::Cluster)?
        .with_compression(codec.compression());
    SiteRunner::new(cfg, codec, node).serve()
}

/// One site's wave-tagged batch slice.
type WaveOps = Vec<(u32, OpWire)>;

/// The concurrent `incHor` session: site 0 (the coordinator) runs on
/// the caller's thread; sites `1..n` are OS threads (threaded mode) or
/// separate processes joined over localhost TCP (distributed mode).
pub struct ConcurrentHorizontal {
    scheme: HorizontalScheme,
    /// Mirror of the logical relation (union of all fragments).
    current: Relation,
    site_of_tid: FxHashMap<Tid, SiteId>,
    /// Global `V` mirror, folded from the per-site images.
    violations: Violations,
    runner: SiteRunner,
    handles: Vec<JoinHandle<Result<(), DetectError>>>,
    codec_kind: CodecKind,
    label: &'static str,
    stats: NetStats,
    wire: NetStats,
    meter: TransportMeter,
    /// Total scheduler waves executed across all batches (deterministic).
    waves: u64,
    n: usize,
}

impl ConcurrentHorizontal {
    /// One OS thread per site over the chosen transport:
    /// [`TransportKind::Tcp`] uses the localhost socket mesh, anything
    /// else the in-process frame channels.
    pub fn threaded(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
        transport: TransportKind,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let cfg = SiteConfig::new(schema, cfds, &scheme);
        let nodes = match transport {
            TransportKind::Tcp => run::tcp_mesh(n).map_err(DetectError::Cluster)?,
            _ => run::mem_mesh(n),
        };
        let mut it = nodes
            .into_iter()
            .map(|nd| nd.with_compression(codec.compression()));
        let node0 = it.next().expect("mesh has at least one node");
        let handles = it
            .map(|node| {
                let runner = SiteRunner::new(cfg.clone(), codec, node);
                std::thread::Builder::new()
                    .name(format!("site-{}", runner.core.me))
                    .spawn(move || runner.serve())
                    .expect("spawn site thread")
            })
            .collect();
        Self::finish_build(
            scheme,
            SiteRunner::new(cfg, codec, node0),
            handles,
            codec,
            "incHorMt",
            d,
        )
    }

    /// Join an `n`-process mesh on fixed localhost ports as the
    /// coordinator. The `n - 1` site processes must run
    /// [`run_site`] with the same `(schema, Σ, scheme, codec,
    /// base_port)` — each site derives its configuration independently,
    /// nothing but frames crosses process boundaries.
    pub fn distributed(
        schema: Arc<Schema>,
        cfds: Vec<Cfd>,
        scheme: HorizontalScheme,
        d: &Relation,
        codec: CodecKind,
        base_port: u16,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let cfg = SiteConfig::new(schema, cfds, &scheme);
        let node0 = run::join(n, COORD, base_port)
            .map_err(DetectError::Cluster)?
            .with_compression(codec.compression());
        Self::finish_build(
            scheme,
            SiteRunner::new(cfg, codec, node0),
            Vec::new(),
            codec,
            "incHorMp",
            d,
        )
    }

    fn finish_build(
        scheme: HorizontalScheme,
        runner: SiteRunner,
        handles: Vec<JoinHandle<Result<(), DetectError>>>,
        codec: CodecKind,
        label: &'static str,
        d: &Relation,
    ) -> Result<Self, DetectError> {
        let n = scheme.n_sites();
        let n_cfds = runner.cfg.cfds.len();
        let mut det = ConcurrentHorizontal {
            current: Relation::new(runner.cfg.schema.clone()),
            site_of_tid: FxHashMap::default(),
            violations: Violations::new(n_cfds),
            stats: NetStats::new(n),
            wire: NetStats::new(n),
            meter: TransportMeter::default(),
            waves: 0,
            codec_kind: codec,
            label,
            scheme,
            runner,
            handles,
            n,
        };
        // Initial load: every site starts empty; d flows through the
        // regular batch path (then the meters reset, like the
        // sequential constructor).
        let mut load = UpdateBatch::new();
        for t in d.iter() {
            load.insert(t);
        }
        det.apply_batch(&load)?;
        det.reset_meters();
        Ok(det)
    }

    /// Assign every normalized op a home site and a wave. An op waits
    /// for the last previous op that shares a `(CFD, group-key)`
    /// footprint or its tid (modifications normalize to
    /// `delete + insert` of one tid, possibly at *different* homes).
    fn schedule(&mut self, delta: &UpdateBatch) -> Result<(Vec<WaveOps>, u32), DetectError> {
        let runner = &mut self.runner;
        let mut last_fp: FxHashMap<(CfdId, Digest), u32> = FxHashMap::default();
        let mut last_tid: FxHashMap<Tid, u32> = FxHashMap::default();
        let mut per_site: Vec<WaveOps> = (0..self.n).map(|_| Vec::new()).collect();
        let mut n_waves = 0u32;
        for op in delta.ops() {
            let (home, t, opw) = match op {
                Update::Insert(t) => (
                    self.scheme.route(t)?,
                    t.clone(),
                    OpWire::Insert(t.tid, t.values.to_vec()),
                ),
                Update::Delete(tid) => {
                    let t = self.current.get(*tid).ok_or(RelError::MissingTid(*tid))?;
                    (self.site_of_tid[tid], t, OpWire::Delete(*tid))
                }
            };
            // The footprint: every keyed variable CFD's group key.
            let keys: Vec<(CfdId, Digest)> = runner
                .core
                .dispatch(&runner.cfg, &t)
                .into_iter()
                .filter_map(|(cid, key)| key.map(|(kd, _)| (cid, kd)))
                .collect();
            let mut w = last_tid.get(&t.tid).map_or(0, |&x| x + 1);
            for k in &keys {
                if let Some(&x) = last_fp.get(k) {
                    w = w.max(x + 1);
                }
            }
            for k in keys {
                last_fp.insert(k, w);
            }
            last_tid.insert(t.tid, w);
            n_waves = n_waves.max(w + 1);
            per_site[home].push((w, opw));
        }
        Ok((per_site, n_waves))
    }

    fn apply_batch(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        let delta = delta.normalize(&self.current);
        let mut dv = DeltaV::default();
        if delta.ops().is_empty() {
            return Ok(dv);
        }
        let (mut per_site, n_waves) = self.schedule(&delta)?;
        self.waves += u64::from(n_waves);
        for (j, slot) in per_site.iter_mut().enumerate().skip(1) {
            let ops = std::mem::take(slot);
            self.runner
                .node
                .send_ctrl(j, &CtrlMsg::Ops { ops, n_waves })
                .map_err(DetectError::Cluster)?;
        }
        // Update the logical mirror (sites own the physical fragments).
        for op in delta.ops() {
            match op {
                Update::Insert(t) => {
                    let s = self.scheme.route(t).map_err(DetectError::Cluster)?;
                    self.site_of_tid.insert(t.tid, s);
                    self.current.insert(t.clone()).map_err(DetectError::Rel)?;
                }
                Update::Delete(tid) => {
                    self.site_of_tid.remove(tid);
                    self.current.delete(*tid).map_err(DetectError::Rel)?;
                }
            }
        }
        // Drive our own slice, holding every wave barrier until all
        // sites report done.
        let mut mine: Vec<Vec<OpWire>> = (0..n_waves).map(|_| Vec::new()).collect();
        for (w, op) in std::mem::take(&mut per_site[COORD]) {
            mine[w as usize].push(op);
        }
        for (w, ops) in mine.into_iter().enumerate() {
            self.runner.run_wave(ops)?;
            while self.runner.done_count < self.n - 1 {
                let p = self.runner.pump()?;
                if p.acks > 0 || p.event.is_some() {
                    return Err(proto("unexpected frame at a wave barrier"));
                }
            }
            self.runner.done_count = 0;
            for j in 1..self.n {
                self.runner
                    .node
                    .send_ctrl(j, &CtrlMsg::WaveAdvance(w as u32))
                    .map_err(DetectError::Cluster)?;
            }
        }
        // Collect per-site images; fold ΔV and the meters.
        for j in 1..self.n {
            self.runner
                .node
                .send_ctrl(j, &CtrlMsg::Collect)
                .map_err(DetectError::Cluster)?;
        }
        dv.added = std::mem::take(&mut self.runner.dv.added);
        dv.removed = std::mem::take(&mut self.runner.dv.removed);
        self.absorb_runner_meters();
        let mut got = 0;
        while got < self.n - 1 {
            let p = self.runner.pump()?;
            match (p.acks, p.event) {
                (0, None) => {}
                (0, Some(Event::Result(img))) => {
                    dv.added.extend(img.added);
                    dv.removed.extend(img.removed);
                    self.stats
                        .merge(&NetStats::from_bytes(&img.stats).map_err(DetectError::Cluster)?);
                    self.wire
                        .merge(&NetStats::from_bytes(&img.wire).map_err(DetectError::Cluster)?);
                    self.meter.merge(img.meter);
                    got += 1;
                }
                _ => return Err(proto("unexpected frame during collection")),
            }
        }
        dv.settle();
        for &(c, t) in &dv.added {
            self.violations.add(c, t);
        }
        for &(c, t) in &dv.removed {
            self.violations.remove(c, t);
        }
        Ok(dv)
    }

    fn absorb_runner_meters(&mut self) {
        self.stats.merge(self.runner.node.stats());
        self.wire.merge(self.runner.node.wire_stats());
        self.meter.merge(self.runner.node.meter());
        self.runner.node.reset_stats();
    }

    fn reset_meters(&mut self) {
        self.stats.reset();
        self.wire.reset();
        self.meter = TransportMeter::default();
        self.waves = 0;
    }

    /// Scheduler waves executed since the last reset. Deterministic:
    /// the greedy wave assignment depends only on the op stream.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Cumulative modeled `|M|` since the last reset (all sites merged).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Cumulative measured on-wire bytes, control frames included.
    pub fn wire_stats(&self) -> &NetStats {
        &self.wire
    }

    /// Merged transport counters of every site.
    pub fn transport_meter(&self) -> TransportMeter {
        self.meter
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.n
    }
}

impl Detector for ConcurrentHorizontal {
    fn strategy(&self) -> &'static str {
        self.label
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.runner.cfg.schema
    }

    fn cfds(&self) -> &[Cfd] {
        &self.runner.cfg.cfds
    }

    fn current(&self) -> &Relation {
        &self.current
    }

    fn violations(&self) -> &Violations {
        &self.violations
    }

    fn apply(&mut self, delta: &UpdateBatch) -> Result<DeltaV, DetectError> {
        self.apply_batch(delta)
    }

    fn net(&self) -> NetReport {
        NetReport::single(self.stats.clone())
            .with_codec(self.codec_kind.name())
            .with_measured(self.wire.clone())
    }

    fn reset_stats(&mut self) {
        self.reset_meters();
    }
}

impl Drop for ConcurrentHorizontal {
    fn drop(&mut self) {
        for j in 1..self.n {
            let _ = self.runner.node.send_ctrl(j, &CtrlMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HorizontalDetector;
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

    /// The differential script: zero-shipment inserts, cross-site
    /// conflicts, witness-protected deletes, remote clears, and a
    /// same-tid modification that *moves* the tuple across fragments.
    fn script() -> Vec<UpdateBatch> {
        let mut b1 = UpdateBatch::new();
        b1.insert(emp_tuple(6, "C", 44, 131, "EH4 8LE", "Mayfield", "EDI"));
        b1.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        b1.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        let mut b2 = UpdateBatch::new();
        b2.delete(4);
        b2.delete(11);
        b2.insert(emp_tuple(12, "C", 44, 131, "EH2 4HF", "Preston", "EDI"));
        let mut b3 = UpdateBatch::new();
        // Modification: t3 changes grade (B → A fragment) and street.
        b3.insert(emp_tuple(3, "A", 44, 131, "EH4 8LE", "Crichton", "EDI"));
        b3.delete(10);
        vec![b1, b2, b3]
    }

    fn assert_tracks_sequential(
        mut conc: ConcurrentHorizontal,
        codec: CodecKind,
        batches: &[UpdateBatch],
    ) {
        let s = emp_schema();
        let mut seq =
            HorizontalDetector::with_codec(s.clone(), fig1_cfds(&s), fig2_scheme(&s), &d0(), codec)
                .unwrap();
        assert_eq!(
            conc.violations().marks_sorted(),
            seq.violations().marks_sorted(),
            "initial load diverged"
        );
        for (i, b) in batches.iter().enumerate() {
            let dv_c = conc.apply_batch(b).unwrap();
            let dv_s = Detector::apply(&mut seq, b).unwrap();
            assert_eq!(
                (dv_c.added.clone(), dv_c.removed.clone()),
                (dv_s.added.clone(), dv_s.removed.clone()),
                "ΔV diverged at batch {i}"
            );
            assert_eq!(
                conc.violations().marks_sorted(),
                seq.violations().marks_sorted(),
                "V diverged at batch {i}"
            );
            assert_eq!(
                conc.stats().to_bytes(),
                seq.stats().to_bytes(),
                "modeled |M| matrix diverged at batch {i}"
            );
        }
        assert_eq!(conc.current().len(), seq.current().len());
    }

    #[test]
    fn threaded_mem_matches_sequential_for_every_codec() {
        for codec in [
            CodecKind::RawValues,
            CodecKind::Md5,
            CodecKind::Dict,
            CodecKind::Lz,
        ] {
            let s = emp_schema();
            let conc = ConcurrentHorizontal::threaded(
                s.clone(),
                fig1_cfds(&s),
                fig2_scheme(&s),
                &d0(),
                codec,
                TransportKind::Framed,
            )
            .unwrap();
            assert_eq!(conc.strategy(), "incHorMt");
            assert_tracks_sequential(conc, codec, &script());
        }
    }

    #[test]
    fn threaded_tcp_matches_sequential() {
        let s = emp_schema();
        let conc = ConcurrentHorizontal::threaded(
            s.clone(),
            fig1_cfds(&s),
            fig2_scheme(&s),
            &d0(),
            CodecKind::Md5,
            TransportKind::Tcp,
        )
        .unwrap();
        assert!(conc.transport_meter().frames > 0 || conc.stats().total_bytes() == 0);
        assert_tracks_sequential(conc, CodecKind::Md5, &script());
    }

    #[test]
    fn wire_meter_identity_holds_and_ctrl_is_unmodeled() {
        let s = emp_schema();
        let mut conc = ConcurrentHorizontal::threaded(
            s.clone(),
            fig1_cfds(&s),
            fig2_scheme(&s),
            &d0(),
            CodecKind::Md5,
            TransportKind::Framed,
        )
        .unwrap();
        let mut b = UpdateBatch::new();
        b.insert(emp_tuple(10, "A", 44, 131, "EH7 7AA", "Foo", "EDI"));
        b.insert(emp_tuple(11, "B", 44, 131, "EH7 7AA", "Bar", "EDI"));
        conc.apply_batch(&b).unwrap();
        let m = conc.transport_meter();
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes,
            "transport identity"
        );
        // Wave barriers + acks exist, but only protocol frames are |M|.
        assert!(m.frames > conc.stats().total_messages());
        assert_eq!(conc.stats().total_bytes(), m.modeled_bytes);
    }

    /// Seeded interleaving stress: many small conflicting batches over
    /// a wider hash-partitioned mesh, checked batch-by-batch against
    /// the sequential drive (state, ΔV and the modeled byte matrix).
    fn stress(n_sites: usize, seed: u64, n_batches: usize) {
        let s = emp_schema();
        let scheme =
            HorizontalScheme::by_hash(s.clone(), s.attr_id("id").unwrap(), n_sites).unwrap();
        let cfds = fig1_cfds(&s);
        let mut conc = ConcurrentHorizontal::threaded(
            s.clone(),
            cfds.clone(),
            scheme.clone(),
            &Relation::new(s.clone()),
            CodecKind::Md5,
            TransportKind::Framed,
        )
        .unwrap();
        let mut seq = HorizontalDetector::with_codec(
            s.clone(),
            cfds,
            scheme,
            &Relation::new(s.clone()),
            CodecKind::Md5,
        )
        .unwrap();
        let mut rng = seed;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        let zips = ["Z1", "Z2", "Z3"];
        let streets = ["S1", "S2", "S3", "S4"];
        let cities = ["EDI", "NYC"];
        let mut live: Vec<Tid> = Vec::new();
        let mut tid_next: Tid = 1;
        for i in 0..n_batches {
            let mut b = UpdateBatch::new();
            for _ in 0..(2 + next() % 6) {
                let del = !live.is_empty() && next() % 4 == 0;
                if del {
                    let k = next() % live.len();
                    b.delete(live.swap_remove(k));
                } else {
                    let modify = !live.is_empty() && next() % 5 == 0;
                    let tid = if modify {
                        live[next() % live.len()]
                    } else {
                        tid_next += 1;
                        live.push(tid_next);
                        tid_next
                    };
                    b.insert(emp_tuple(
                        tid,
                        "A",
                        44,
                        131,
                        zips[next() % zips.len()],
                        streets[next() % streets.len()],
                        cities[next() % cities.len()],
                    ));
                }
            }
            let dv_c = conc.apply_batch(&b).unwrap();
            let dv_s = Detector::apply(&mut seq, &b).unwrap();
            assert_eq!(dv_c.added, dv_s.added, "batch {i} Δ⁺");
            assert_eq!(dv_c.removed, dv_s.removed, "batch {i} Δ⁻");
            assert_eq!(
                conc.violations().marks_sorted(),
                seq.violations().marks_sorted(),
                "batch {i} V"
            );
            assert_eq!(
                conc.stats().to_bytes(),
                seq.stats().to_bytes(),
                "batch {i} |M| matrix"
            );
        }
    }

    #[test]
    fn interleaving_stress_8_sites() {
        stress(8, 0xC0FFEE, 30);
    }

    #[test]
    fn interleaving_stress_16_sites() {
        stress(16, 0xBADCAB, 18);
    }

    #[test]
    fn ctrl_frames_round_trip() {
        let msgs = vec![
            CtrlMsg::Ack,
            CtrlMsg::AckN(2),
            CtrlMsg::AckN(129),
            CtrlMsg::Ops {
                ops: vec![
                    (
                        0,
                        OpWire::Insert(7, vec![Value::int(1), Value::str("x"), Value::Null]),
                    ),
                    (2, OpWire::Delete(9)),
                ],
                n_waves: 3,
            },
            CtrlMsg::WaveDone(4),
            CtrlMsg::WaveAdvance(4),
            CtrlMsg::Collect,
            CtrlMsg::BatchResult(Box::new(BatchImage {
                added: vec![(0, 1), (1, 2)],
                removed: vec![(0, 9)],
                stats: NetStats::new(3).to_bytes(),
                wire: NetStats::new(3).to_bytes(),
                meter: TransportMeter {
                    frames: 1,
                    wire_bytes: 2,
                    modeled_bytes: 3,
                    structural_bytes: 4,
                    saved_bytes: 5,
                },
            })),
            CtrlMsg::Shutdown,
        ];
        for m in msgs {
            assert_eq!(m.wire_size(), 0, "control frames are all structure");
            let mut buf = Vec::new();
            let structural = m.encode_frame(&mut buf);
            assert_eq!(structural, buf.len());
            let back = CtrlMsg::decode_frame(&buf).unwrap();
            assert_eq!(back, m);
            // The runtime dispatcher routes it to the ctrl arm.
            match RtFrame::decode_frame(&buf).unwrap() {
                RtFrame::Ctrl(c) => assert_eq!(c, m),
                RtFrame::Hor(_) | RtFrame::Piggy(..) => {
                    panic!("ctrl frame dispatched as protocol")
                }
            }
        }
    }

    #[test]
    fn piggy_envelope_keeps_the_carried_frames_modeled_size() {
        let inner = HorMsg::ProbeReply {
            conflicts: vec![3, 5, 8],
        };
        let plain_size = inner.wire_size();
        let mut plain = Vec::new();
        let plain_structural = inner.encode_frame(&mut plain);
        let wrapped = RtFrame::Piggy(42, inner);
        // Modeled |M| is the carried message's — the envelope is pure
        // structural overhead (tag + u32 count = 5 bytes).
        assert_eq!(wrapped.wire_size(), plain_size);
        let mut buf = Vec::new();
        let structural = wrapped.encode_frame(&mut buf);
        assert_eq!(structural, plain_structural + 5);
        assert_eq!(buf.len(), wrapped.wire_size() + structural);
        match RtFrame::decode_frame(&buf).unwrap() {
            RtFrame::Piggy(k, HorMsg::ProbeReply { conflicts }) => {
                assert_eq!(k, 42);
                assert_eq!(conflicts, vec![3, 5, 8]);
            }
            other => panic!("piggy frame decoded as {other:?}"),
        }
    }

    #[test]
    fn schedule_separates_conflicting_ops_into_waves() {
        let s = emp_schema();
        let mut conc = ConcurrentHorizontal::threaded(
            s.clone(),
            fig1_cfds(&s),
            fig2_scheme(&s),
            &d0(),
            CodecKind::Md5,
            TransportKind::Framed,
        )
        .unwrap();
        // Same zip ⇒ same φ0 group ⇒ must serialize. φ1's RHS is a
        // constant (`city = EDI`), so it is a *constant* CFD and adds no
        // footprint: the distinct-zip tuple rides in wave 0.
        let mut b = UpdateBatch::new();
        b.insert(emp_tuple(20, "A", 44, 131, "EH9 9ZZ", "P", "EDI"));
        b.insert(emp_tuple(21, "B", 44, 131, "EH9 9ZZ", "Q", "EDI"));
        b.insert(emp_tuple(22, "C", 44, 131, "EH8 8YY", "R", "EDI"));
        let delta = b.normalize(&conc.current);
        let (per_site, n_waves) = conc.schedule(&delta).unwrap();
        assert_eq!(n_waves, 2, "the shared-zip pair serializes on φ0");
        let total: usize = per_site.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        // Distinct tids with no shared group: one wave.
        let mut b2 = UpdateBatch::new();
        b2.insert(emp_tuple(30, "A", 1, 1, "X1", "P", "EDI"));
        b2.insert(emp_tuple(31, "B", 2, 2, "X2", "Q", "EDI"));
        let delta2 = b2.normalize(&conc.current);
        let (_, n_waves2) = conc.schedule(&delta2).unwrap();
        assert_eq!(n_waves2, 1, "disjoint footprints share a wave");
    }
}
