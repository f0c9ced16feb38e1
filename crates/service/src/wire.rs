//! The length-prefixed, versioned wire protocol of the decode daemon.
//!
//! Every frame on the socket is `[u32 LE payload length][payload]`; the
//! payload opens with `[u8 version][u8 opcode]` followed by the
//! little-endian body of one [`Frame`] variant. Frames longer than
//! [`MAX_FRAME_LEN`] are rejected before allocation, truncated bodies
//! decode to [`WireError::Truncated`], and trailing bytes to
//! [`WireError::Trailing`] — a malformed client cannot crash the daemon.
//!
//! | opcode | frame            | direction | body |
//! |-------:|------------------|-----------|------|
//! | `0x01` | [`Frame::Open`]        | → daemon | session, lanes, [`SessionSpec`] |
//! | `0x02` | [`Frame::Push`]        | → daemon | session, rounds of detector words |
//! | `0x03` | [`Frame::Inject`]      | → daemon | session, mid-stream defect event |
//! | `0x04` | [`Frame::Close`]       | → daemon | session |
//! | `0x05` | [`Frame::Shutdown`]    | → daemon | — |
//! | `0x06` | [`Frame::Stats`]       | → daemon | session |
//! | `0x81` | [`Frame::Opened`]      | ← daemon | session, round layout |
//! | `0x82` | [`Frame::Corrections`] | ← daemon | session, committed horizon, flips |
//! | `0x83` | [`Frame::Availability`]| ← daemon | session, round, state |
//! | `0x84` | [`Frame::Deformed`]    | ← daemon | session, deformation round, epoch |
//! | `0x85` | [`Frame::Closed`]      | ← daemon | session, final flips |
//! | `0x86` | [`Frame::ShuttingDown`]| ← daemon | — |
//! | `0x87` | [`Frame::SessionStats`]| ← daemon | session, queue depth, horizons |
//! | `0x8F` | [`Frame::Error`]       | ← daemon | session, message |

use std::io::{self, Read, Write};

use surf_defects::{DefectEpisode, DefectMap, DefectSchedule};
use surf_deformer_core::PatchTimeline;
use surf_lattice::{Basis, Coord, Patch};
use surf_matching::WindowConfig;
use surf_sim::service::{Availability, SessionConfig};
use surf_sim::{DecoderKind, DecoderPrior, NoiseParams};

/// Protocol version carried by every frame. Version 2 added the
/// [`SessionSpec::sparse`] flag and the [`Frame::Stats`] /
/// [`Frame::SessionStats`] metrics pair.
pub const WIRE_VERSION: u8 = 2;

/// Hard ceiling on a frame payload; larger advertised lengths are
/// rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 24;

/// `end` sentinel marking a permanent [`WireEpisode`].
pub const PERMANENT: u32 = u32::MAX;

/// One defective qubit on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireDefect {
    /// Lattice coordinates.
    pub x: i32,
    /// Lattice coordinates.
    pub y: i32,
    /// Elevated error rate while the defect is active.
    pub rate: f64,
}

/// One defect episode on the wire: active over `[start, end)` rounds
/// (`end == PERMANENT` never heals).
#[derive(Clone, Debug, PartialEq)]
pub struct WireEpisode {
    /// First active round.
    pub start: u32,
    /// One past the last active round, or [`PERMANENT`].
    pub end: u32,
    /// Struck qubits.
    pub defects: Vec<WireDefect>,
}

/// Everything a client must say to open a session: the code, the noise
/// environment the decoder should believe, the window split, and any
/// defect episodes known upfront. Validated server-side by
/// [`SessionSpec::to_config`].
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSpec {
    /// Code distance of the rotated patch.
    pub distance: u16,
    /// Noisy measurement rounds.
    pub rounds: u32,
    /// Memory basis: 0 = Z, 1 = X.
    pub basis: u8,
    /// Sliding-window size in rounds.
    pub window: u32,
    /// Rounds committed per window step (`1..=window`).
    pub commit: u32,
    /// Decoder backend: 0 = MWPM, 1 = union-find.
    pub decoder: u8,
    /// Decoder prior: 0 = informed, 1 = nominal.
    pub prior: u8,
    /// 1 = sparse: compile the periodic template when the horizon
    /// proves periodic (O(epochs + window) model memory); 0 = dense
    /// (monolithic model). Both share one decoder design, so results are
    /// bit-identical either way.
    pub sparse: u8,
    /// Per-round data-qubit depolarizing probability.
    pub p_data: f64,
    /// Measurement flip probability.
    pub p_meas: f64,
    /// Correlated two-qubit depolarizing probability.
    pub p_correlated: f64,
    /// Defect episodes known at open time.
    pub episodes: Vec<WireEpisode>,
}

impl SessionSpec {
    /// A clean `distance`/`rounds` Z-memory spec at paper noise with a
    /// full-history window.
    pub fn standard(distance: u16, rounds: u32) -> Self {
        let noise = NoiseParams::paper();
        SessionSpec {
            distance,
            rounds,
            basis: 0,
            window: rounds + 1,
            commit: (rounds + 1).div_ceil(2),
            decoder: 0,
            prior: 0,
            sparse: 0,
            p_data: noise.p_data,
            p_meas: noise.p_meas,
            p_correlated: noise.p_correlated,
            episodes: Vec::new(),
        }
    }

    /// Validates the spec and compiles it to a [`SessionConfig`]. Every
    /// constraint the sim layer would assert is checked here first, so a
    /// hostile spec yields an error frame instead of a daemon panic.
    pub fn to_config(&self) -> Result<SessionConfig, String> {
        if !(2..=49).contains(&self.distance) {
            return Err(format!("distance {} outside 2..=49", self.distance));
        }
        if !(1..=1_000_000).contains(&self.rounds) {
            return Err(format!("rounds {} outside 1..=1000000", self.rounds));
        }
        if !(1..=self.rounds + 1).contains(&self.window) {
            return Err(format!(
                "window {} outside 1..={}",
                self.window,
                self.rounds + 1
            ));
        }
        if !(1..=self.window).contains(&self.commit) {
            return Err(format!(
                "commit {} outside 1..={}",
                self.commit, self.window
            ));
        }
        let basis = match self.basis {
            0 => Basis::Z,
            1 => Basis::X,
            b => return Err(format!("unknown basis code {b}")),
        };
        let decoder = match self.decoder {
            0 => DecoderKind::Mwpm,
            1 => DecoderKind::UnionFind,
            d => return Err(format!("unknown decoder code {d}")),
        };
        let prior = match self.prior {
            0 => DecoderPrior::Informed,
            1 => DecoderPrior::Nominal,
            p => return Err(format!("unknown prior code {p}")),
        };
        let sparse = match self.sparse {
            0 => false,
            1 => true,
            s => return Err(format!("unknown sparse code {s}")),
        };
        for &p in &[self.p_data, self.p_meas, self.p_correlated] {
            if !(0.0..=0.5).contains(&p) {
                return Err(format!("noise probability {p} outside 0..=0.5"));
            }
        }
        let mut schedule = DefectSchedule::new();
        for ep in &self.episodes {
            if ep.start >= self.rounds {
                return Err(format!(
                    "episode starts at round {} of a {}-round stream",
                    ep.start, self.rounds
                ));
            }
            if ep.end != PERMANENT && ep.end <= ep.start {
                return Err(format!("episode [{}, {}) is empty", ep.start, ep.end));
            }
            let mut map = DefectMap::new();
            for d in &ep.defects {
                if !(0.0..=1.0).contains(&d.rate) {
                    return Err(format!("defect rate {} outside 0..=1", d.rate));
                }
                map.insert(Coord::new(d.x, d.y), d.rate);
            }
            schedule.push(if ep.end == PERMANENT {
                DefectEpisode::permanent(ep.start, map)
            } else {
                DefectEpisode::temporary(ep.start, ep.end, map)
            });
        }
        let timeline =
            PatchTimeline::fixed(Patch::rotated(self.distance as usize), DefectMap::new());
        let mut config = SessionConfig::new(timeline, basis, self.rounds);
        config.window = WindowConfig {
            window: self.window,
            commit: self.commit,
        };
        config.decoder = decoder;
        config.prior = prior;
        config.sparse = sparse;
        config.noise = NoiseParams {
            p_data: self.p_data,
            p_meas: self.p_meas,
            p_correlated: self.p_correlated,
        };
        config.schedule = schedule;
        Ok(config)
    }
}

/// [`Availability`] as coded on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireAvailability {
    /// 0 = nominal, 1 = degraded, 2 = mitigated.
    pub state: u8,
    /// `since` round (degraded) or epoch index (mitigated); 0 otherwise.
    pub arg: u32,
}

impl From<Availability> for WireAvailability {
    fn from(a: Availability) -> Self {
        match a {
            Availability::Nominal => WireAvailability { state: 0, arg: 0 },
            Availability::Degraded { since } => WireAvailability {
                state: 1,
                arg: since,
            },
            Availability::Mitigated { epoch } => WireAvailability {
                state: 2,
                arg: epoch,
            },
        }
    }
}

/// Every frame of the protocol; see the [module docs](self) for the
/// opcode table.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Open logical-qubit session `session` over `lanes` parallel shots.
    Open {
        /// Client-chosen id, unique per connection.
        session: u32,
        /// Parallel shot lanes, `1..=64`.
        lanes: u8,
        /// What to decode.
        spec: SessionSpec,
    },
    /// Feed consecutive rounds of detector words (the canonical
    /// ascending-detector order of [`Frame::Opened`]'s layout). Chunk as
    /// you like: results never depend on frame boundaries.
    Push {
        /// Target session.
        session: u32,
        /// `rounds[k][i]` = firing word of detector `i` of the k-th
        /// round being pushed.
        rounds: Vec<Vec<u64>>,
    },
    /// Report a defect strike mid-stream (recompiles the session prior).
    Inject {
        /// Target session.
        session: u32,
        /// First active round.
        round: u32,
        /// Struck qubits.
        defects: Vec<WireDefect>,
    },
    /// Close the session and collect its final predictions.
    Close {
        /// Target session.
        session: u32,
    },
    /// Stop the daemon (drain your sessions first: pending queued work
    /// on other connections is dropped).
    Shutdown,
    /// Ask for a [`Frame::SessionStats`] snapshot of one session.
    Stats {
        /// Target session.
        session: u32,
    },
    /// The session is compiled and ready for [`Frame::Push`].
    Opened {
        /// Echoed id.
        session: u32,
        /// Rounds the stream spans (noisy rounds + readout comparison).
        total_rounds: u32,
        /// Detector words expected per round.
        round_counts: Vec<u32>,
    },
    /// Decode progress after a [`Frame::Push`].
    Corrections {
        /// Echoed id.
        session: u32,
        /// Last round consumed.
        round: u32,
        /// Corrections final for rounds `0..committed_through`.
        committed_through: u32,
        /// Windows decoded so far.
        windows_committed: u32,
        /// Lane-packed committed observable-flip predictions.
        observable_flips: u64,
    },
    /// Availability changed at `round`.
    Availability {
        /// Echoed id.
        session: u32,
        /// Round the state change took effect.
        round: u32,
        /// New state.
        state: WireAvailability,
    },
    /// The patch geometry deforms at `at_round` (sent one round ahead).
    Deformed {
        /// Echoed id.
        session: u32,
        /// First round measured on the new geometry.
        at_round: u32,
        /// Timeline epoch beginning there.
        epoch: u32,
    },
    /// The session is gone; final flips if the stream completed.
    Closed {
        /// Echoed id.
        session: u32,
        /// `true` when every round was pushed before closing.
        complete: bool,
        /// Lane-packed committed observable-flip predictions.
        observable_flips: u64,
    },
    /// The daemon acknowledges [`Frame::Shutdown`] and stops.
    ShuttingDown,
    /// Snapshot of one session's decode progress, answering a
    /// [`Frame::Stats`] request. Taken after every request queued ahead
    /// of the `Stats` has executed, so the horizons reflect all pushes
    /// the client sent first.
    SessionStats {
        /// Echoed id.
        session: u32,
        /// Requests still queued for this session when the snapshot was
        /// taken (backpressure indicator).
        queue_depth: u32,
        /// Rounds of syndrome consumed so far.
        filled_rounds: u32,
        /// Corrections final for rounds `0..committed_through`.
        committed_through: u32,
        /// `filled_rounds - committed_through`: rounds consumed but not
        /// yet irrevocably decoded (bounded by the window split).
        commit_lag: u32,
    },
    /// A request failed; the session (if any) survives unless opening
    /// it is what failed.
    Error {
        /// Id of the offending request's session (0 if none).
        session: u32,
        /// Human-readable cause.
        message: String,
    },
}

/// Why a payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the body did (or an embedded count
    /// exceeds the bytes that follow it).
    Truncated,
    /// A frame header advertised more than [`MAX_FRAME_LEN`] bytes.
    Oversized {
        /// The advertised payload length.
        len: u32,
    },
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Well-formed body followed by junk bytes.
    Trailing,
    /// A string field was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::Oversized { len } => {
                write!(f, "frame length {len} exceeds maximum {MAX_FRAME_LEN}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Trailing => write!(f, "trailing bytes after frame body"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

// --- encoding -------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_defects(out: &mut Vec<u8>, defects: &[WireDefect]) {
    put_u32(out, defects.len() as u32);
    for d in defects {
        put_i32(out, d.x);
        put_i32(out, d.y);
        put_f64(out, d.rate);
    }
}

fn put_spec(out: &mut Vec<u8>, spec: &SessionSpec) {
    put_u16(out, spec.distance);
    put_u32(out, spec.rounds);
    out.push(spec.basis);
    put_u32(out, spec.window);
    put_u32(out, spec.commit);
    out.push(spec.decoder);
    out.push(spec.prior);
    out.push(spec.sparse);
    put_f64(out, spec.p_data);
    put_f64(out, spec.p_meas);
    put_f64(out, spec.p_correlated);
    put_u32(out, spec.episodes.len() as u32);
    for ep in &spec.episodes {
        put_u32(out, ep.start);
        put_u32(out, ep.end);
        put_defects(out, &ep.defects);
    }
}

impl Frame {
    fn opcode(&self) -> u8 {
        match self {
            Frame::Open { .. } => 0x01,
            Frame::Push { .. } => 0x02,
            Frame::Inject { .. } => 0x03,
            Frame::Close { .. } => 0x04,
            Frame::Shutdown => 0x05,
            Frame::Stats { .. } => 0x06,
            Frame::Opened { .. } => 0x81,
            Frame::Corrections { .. } => 0x82,
            Frame::Availability { .. } => 0x83,
            Frame::Deformed { .. } => 0x84,
            Frame::Closed { .. } => 0x85,
            Frame::ShuttingDown => 0x86,
            Frame::SessionStats { .. } => 0x87,
            Frame::Error { .. } => 0x8F,
        }
    }

    /// Encodes the frame payload (version, opcode, body) *without* the
    /// length prefix; see [`encode_frame`] for the full on-wire bytes.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION, self.opcode()];
        match self {
            Frame::Open {
                session,
                lanes,
                spec,
            } => {
                put_u32(&mut out, *session);
                out.push(*lanes);
                put_spec(&mut out, spec);
            }
            Frame::Push { session, rounds } => {
                put_u32(&mut out, *session);
                put_u16(&mut out, rounds.len() as u16);
                for round in rounds {
                    put_u32(&mut out, round.len() as u32);
                    for &w in round {
                        put_u64(&mut out, w);
                    }
                }
            }
            Frame::Inject {
                session,
                round,
                defects,
            } => {
                put_u32(&mut out, *session);
                put_u32(&mut out, *round);
                put_defects(&mut out, defects);
            }
            Frame::Close { session } => put_u32(&mut out, *session),
            Frame::Stats { session } => put_u32(&mut out, *session),
            Frame::Shutdown | Frame::ShuttingDown => {}
            Frame::Opened {
                session,
                total_rounds,
                round_counts,
            } => {
                put_u32(&mut out, *session);
                put_u32(&mut out, *total_rounds);
                put_u32(&mut out, round_counts.len() as u32);
                for &c in round_counts {
                    put_u32(&mut out, c);
                }
            }
            Frame::Corrections {
                session,
                round,
                committed_through,
                windows_committed,
                observable_flips,
            } => {
                put_u32(&mut out, *session);
                put_u32(&mut out, *round);
                put_u32(&mut out, *committed_through);
                put_u32(&mut out, *windows_committed);
                put_u64(&mut out, *observable_flips);
            }
            Frame::Availability {
                session,
                round,
                state,
            } => {
                put_u32(&mut out, *session);
                put_u32(&mut out, *round);
                out.push(state.state);
                put_u32(&mut out, state.arg);
            }
            Frame::Deformed {
                session,
                at_round,
                epoch,
            } => {
                put_u32(&mut out, *session);
                put_u32(&mut out, *at_round);
                put_u32(&mut out, *epoch);
            }
            Frame::Closed {
                session,
                complete,
                observable_flips,
            } => {
                put_u32(&mut out, *session);
                out.push(u8::from(*complete));
                put_u64(&mut out, *observable_flips);
            }
            Frame::SessionStats {
                session,
                queue_depth,
                filled_rounds,
                committed_through,
                commit_lag,
            } => {
                put_u32(&mut out, *session);
                put_u32(&mut out, *queue_depth);
                put_u32(&mut out, *filled_rounds);
                put_u32(&mut out, *committed_through);
                put_u32(&mut out, *commit_lag);
            }
            Frame::Error { session, message } => {
                put_u32(&mut out, *session);
                put_u32(&mut out, message.len() as u32);
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }
}

/// Encodes a frame as its full on-wire bytes: `[u32 LE length][payload]`.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = frame.encode_payload();
    let mut out = Vec::with_capacity(4 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

// --- decoding -------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A collection count, pre-checked against the bytes remaining so a
    /// hostile count cannot trigger a huge allocation.
    fn count(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size) > self.buf.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
    fn defects(&mut self) -> Result<Vec<WireDefect>, WireError> {
        let n = self.count(16)?;
        (0..n)
            .map(|_| {
                Ok(WireDefect {
                    x: self.i32()?,
                    y: self.i32()?,
                    rate: self.f64()?,
                })
            })
            .collect()
    }
    fn spec(&mut self) -> Result<SessionSpec, WireError> {
        let distance = self.u16()?;
        let rounds = self.u32()?;
        let basis = self.u8()?;
        let window = self.u32()?;
        let commit = self.u32()?;
        let decoder = self.u8()?;
        let prior = self.u8()?;
        let sparse = self.u8()?;
        let p_data = self.f64()?;
        let p_meas = self.f64()?;
        let p_correlated = self.f64()?;
        let n = self.count(12)?;
        let episodes = (0..n)
            .map(|_| {
                Ok(WireEpisode {
                    start: self.u32()?,
                    end: self.u32()?,
                    defects: self.defects()?,
                })
            })
            .collect::<Result<_, WireError>>()?;
        Ok(SessionSpec {
            distance,
            rounds,
            basis,
            window,
            commit,
            decoder,
            prior,
            sparse,
            p_data,
            p_meas,
            p_correlated,
            episodes,
        })
    }
}

/// Decodes one frame payload (the bytes after the length prefix).
pub fn decode_frame(payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let opcode = r.u8()?;
    let frame = match opcode {
        0x01 => Frame::Open {
            session: r.u32()?,
            lanes: r.u8()?,
            spec: r.spec()?,
        },
        0x02 => {
            let session = r.u32()?;
            let n = r.u16()? as usize;
            let rounds = (0..n)
                .map(|_| {
                    let k = r.count(8)?;
                    (0..k).map(|_| r.u64()).collect::<Result<Vec<u64>, _>>()
                })
                .collect::<Result<_, _>>()?;
            Frame::Push { session, rounds }
        }
        0x03 => Frame::Inject {
            session: r.u32()?,
            round: r.u32()?,
            defects: r.defects()?,
        },
        0x04 => Frame::Close { session: r.u32()? },
        0x05 => Frame::Shutdown,
        0x06 => Frame::Stats { session: r.u32()? },
        0x81 => {
            let session = r.u32()?;
            let total_rounds = r.u32()?;
            let n = r.count(4)?;
            let round_counts = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
            Frame::Opened {
                session,
                total_rounds,
                round_counts,
            }
        }
        0x82 => Frame::Corrections {
            session: r.u32()?,
            round: r.u32()?,
            committed_through: r.u32()?,
            windows_committed: r.u32()?,
            observable_flips: r.u64()?,
        },
        0x83 => Frame::Availability {
            session: r.u32()?,
            round: r.u32()?,
            state: WireAvailability {
                state: r.u8()?,
                arg: r.u32()?,
            },
        },
        0x84 => Frame::Deformed {
            session: r.u32()?,
            at_round: r.u32()?,
            epoch: r.u32()?,
        },
        0x85 => Frame::Closed {
            session: r.u32()?,
            complete: r.u8()? != 0,
            observable_flips: r.u64()?,
        },
        0x86 => Frame::ShuttingDown,
        0x87 => Frame::SessionStats {
            session: r.u32()?,
            queue_depth: r.u32()?,
            filled_rounds: r.u32()?,
            committed_through: r.u32()?,
            commit_lag: r.u32()?,
        },
        0x8F => {
            let session = r.u32()?;
            let n = r.count(1)?;
            let bytes = r.take(n)?;
            Frame::Error {
                session,
                message: String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)?,
            }
        }
        op => return Err(WireError::BadOpcode(op)),
    };
    if r.pos != payload.len() {
        return Err(WireError::Trailing);
    }
    Ok(frame)
}

// --- stream I/O -----------------------------------------------------------

/// Writes one frame (length prefix + payload) to `w` without flushing.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// Reads one frame from `r`. Returns `Ok(None)` on clean EOF at a frame
/// boundary; oversized or malformed frames become `InvalidData` errors.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized { len }.to_string(),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_frame(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}
