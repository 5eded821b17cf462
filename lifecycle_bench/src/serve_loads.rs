//! The two serving loads over one in-process server: `frame_fanout`
//! (write a frame, read every sensor's forecast of it) and `hot_read`
//! (read a settled window from one deeply pipelined connection).

use std::collections::VecDeque;
use std::time::Instant;

use stwa_serve::{proto, Client, Response};

use crate::outcome::Outcome;
use crate::setup::{
    declares, forecast_target, fp_tag, observe_body, version_tag, Deployment, Frames, Oracle,
    HORIZON,
};
use crate::stats::{evals_per_frame, AnswerSource, ServerStats, Slices, Tally};

/// frame_fanout: frames pipelined on its one connection.
pub const FRAMES_IN_FLIGHT: usize = 4;
/// frame_fanout: a run completes at least this many frames, so the p99
/// freshness has at least ten samples beyond it.
pub const MIN_FRAMES: u64 = 1000;
/// hot_read: requests pipelined on its one connection. One connection
/// is served by one IO worker; two would land on one worker or on two
/// as the accepts race, and the runs would split into a slow and a fast
/// group.
pub const HOT_DEPTH: usize = 32;
/// hot_read: a new frame is observed after this many reads.
pub const HOT_OBSERVE_EVERY: u64 = 8192;
/// hot_read: every this-many-th answer is kept for bitwise verification.
const HOT_VERIFY_EVERY: u64 = 1024;
/// frame_fanout: answers of every this-many-th frame are verified (each
/// verified frame costs the oracle one forward after the loop).
const FANOUT_VERIFY_FRAME_EVERY: usize = 3;
/// frame_fanout: in a verified frame, its last answer and every
/// this-many-th answer overall are kept for verification.
const FANOUT_VERIFY_EVERY: u64 = 97;
/// Throughput is the median over slices of this width.
pub const SLICE_S: f64 = 1.0;

/// A served answer kept for verification after the timed loop.
pub struct Sample {
    pub body: Vec<u8>,
    pub sensor: u32,
    pub horizon: u32,
}

/// What one timed pass of a serving load measured.
#[derive(Default)]
pub struct ServePass {
    /// Median over whole slices of completed units per second (frames
    /// or answered requests).
    pub rate: f64,
    pub wall_s: f64,
    pub units: u64,
    /// Headline wait per unit, ms: frame freshness or request latency.
    pub wait_ms: Vec<f64>,
    pub hit_us: Vec<f64>,
    pub model_us: Vec<f64>,
    pub ack_us: Vec<f64>,
    pub tally: Tally,
    pub frames: u64,
    pub stats: ServerStats,
    pub samples: Vec<Sample>,
}

impl ServePass {
    pub fn evals_per_frame(&self) -> Option<f64> {
        evals_per_frame(self.stats.evals, self.frames)
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Read `/stats` before and after a pass; a dropped request fails it.
fn stats_delta(
    dep: &mut Deployment,
    before: &ServerStats,
    out: &mut Outcome,
) -> Result<ServerStats, String> {
    let delta = dep.stats()?.since(before);
    out.attempt(2);
    if delta.dropped() != 0.0 {
        out.fail(format!(
            "{} requests parsed but never answered",
            delta.dropped()
        ));
    }
    if delta.swap_errors != 0.0 {
        out.fail(format!("{} swap errors", delta.swap_errors));
    }
    Ok(delta)
}

enum Tag {
    Observe {
        frame: usize,
        sent: Instant,
    },
    Get {
        frame: usize,
        sensor: u32,
        horizon: u32,
        sent: Instant,
    },
}

struct FrameInFlight {
    sent: Instant,
    remaining: usize,
    fp_tag: Vec<u8>,
    fp: u64,
}

/// Closed loop on one keep-alive connection with [`FRAMES_IN_FLIGHT`]
/// frames pipelined. A frame is `POST /observe` plus one `GET
/// /forecast` per (sensor, horizon); every answer must declare the
/// window that ends with its frame.
pub fn frame_fanout(
    dep: &mut Deployment,
    frames: &Frames,
    pairs: &[(u32, u32)],
    oracle: &mut Oracle,
    seconds: f64,
    out: &mut Outcome,
) -> Result<ServePass, String> {
    let before = dep.stats()?;
    let mut client = Client::connect(dep.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let targets: Vec<String> = pairs.iter().map(|&(s, h)| forecast_target(s, h)).collect();
    let version = version_tag(dep.version);
    let mut tags: VecDeque<Tag> = VecDeque::new();
    let mut inflight: VecDeque<(usize, FrameInFlight)> = VecDeque::new();
    let mut pass = ServePass::default();
    let mut slices = Slices::new(SLICE_S);
    let mut answers = 0u64;
    let t0 = Instant::now();
    loop {
        let more = t0.elapsed().as_secs_f64() < seconds || pass.frames < MIN_FRAMES;
        while more && inflight.len() < FRAMES_IN_FLIGHT {
            let idx = dep.next_frame;
            let frame = frames.frame(idx);
            dep.next_frame += 1;
            dep.window.push(&frame);
            let fp = oracle.add_window(&dep.window);
            let sent = Instant::now();
            client
                .send_post("/observe", &observe_body(&frame))
                .map_err(|e| format!("send observe: {e}"))?;
            tags.push_back(Tag::Observe { frame: idx, sent });
            for (&(sensor, horizon), target) in pairs.iter().zip(&targets) {
                client
                    .send_get(target)
                    .map_err(|e| format!("send forecast: {e}"))?;
                tags.push_back(Tag::Get {
                    frame: idx,
                    sensor,
                    horizon,
                    sent: Instant::now(),
                });
            }
            out.attempt(1 + pairs.len() as u64);
            pass.frames += 1;
            inflight.push_back((
                idx,
                FrameInFlight {
                    sent,
                    remaining: 1 + pairs.len(),
                    fp_tag: fp_tag(fp),
                    fp,
                },
            ));
        }
        let Some(tag) = tags.pop_front() else { break };
        let resp = client.recv().map_err(|e| format!("response lost: {e}"))?;
        let frame_idx = match &tag {
            Tag::Observe { frame, .. } | Tag::Get { frame, .. } => *frame,
        };
        let (front_idx, current) = inflight.front_mut().expect("a frame is in flight");
        debug_assert_eq!(*front_idx, frame_idx, "answers arrive in request order");
        if resp.status != 200 {
            out.fail(format!("frame {frame_idx}: status {}", resp.status));
        }
        match tag {
            Tag::Observe { sent, .. } => {
                pass.ack_us.push(micros(sent));
                if resp.status == 200 && proto::parse_window_fp(&resp.body) != Ok(current.fp) {
                    out.fail(format!("frame {frame_idx}: ack declares another window"));
                }
            }
            Tag::Get {
                sensor,
                horizon,
                sent,
                ..
            } => {
                let source = pass.tally.record(&resp.body);
                let us = micros(sent);
                if source.is_model() {
                    pass.model_us.push(us);
                } else if source == AnswerSource::Hit {
                    pass.hit_us.push(us);
                }
                if resp.status == 200 && !declares(&resp.body, &version, &current.fp_tag) {
                    out.fail(format!(
                        "frame {frame_idx}: sensor {sensor} answered for another window or version"
                    ));
                }
                answers += 1;
                let last = current.remaining == 1;
                if frame_idx.is_multiple_of(FANOUT_VERIFY_FRAME_EVERY)
                    && (last || answers.is_multiple_of(FANOUT_VERIFY_EVERY))
                {
                    pass.samples.push(Sample {
                        body: resp.body,
                        sensor,
                        horizon,
                    });
                }
            }
        }
        current.remaining -= 1;
        if current.remaining == 0 {
            let at = t0.elapsed().as_secs_f64();
            pass.wait_ms
                .push(current.sent.elapsed().as_secs_f64() * 1e3);
            slices.add(at);
            pass.wall_s = at;
            pass.units += 1;
            inflight.pop_front();
        }
    }
    drop(client);
    pass.rate = slices
        .median_rate(pass.wall_s)
        .ok_or("frame_fanout ran shorter than one slice")?;
    pass.stats = stats_delta(dep, &before, out)?;
    Ok(pass)
}

/// Closed loop on one keep-alive connection with [`HOT_DEPTH`] requests
/// pipelined, cycling through every (sensor, horizon) pair and observing
/// a frame every [`HOT_OBSERVE_EVERY`] reads.
pub fn hot_read(
    dep: &mut Deployment,
    frames: &Frames,
    pairs: &[(u32, u32)],
    oracle: &mut Oracle,
    seconds: f64,
    out: &mut Outcome,
) -> Result<ServePass, String> {
    let before = dep.stats()?;
    let mut client = Client::connect(dep.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let targets: Vec<String> = pairs.iter().map(|&(s, h)| forecast_target(s, h)).collect();
    let mut pass = ServePass::default();
    let mut slices = Slices::new(SLICE_S);
    let mut cursor = 0usize;
    let mut reads_since_observe = 0u64;
    // (pair index or None for an observe, expected ack fp, send time)
    let mut tags: VecDeque<(Option<usize>, u64, Instant)> = VecDeque::new();
    let mut answered = 0u64;
    let t0 = Instant::now();
    loop {
        let more = t0.elapsed().as_secs_f64() < seconds;
        while more && client.outstanding < HOT_DEPTH {
            if reads_since_observe >= HOT_OBSERVE_EVERY {
                reads_since_observe = 0;
                let frame = frames.frame(dep.next_frame);
                dep.next_frame += 1;
                dep.window.push(&frame);
                let fp = oracle.add_window(&dep.window);
                tags.push_back((None, fp, Instant::now()));
                client
                    .send_post("/observe", &observe_body(&frame))
                    .map_err(|e| format!("send observe: {e}"))?;
                pass.frames += 1;
            } else {
                reads_since_observe += 1;
                let i = cursor % pairs.len();
                cursor += 1;
                tags.push_back((Some(i), 0, Instant::now()));
                client
                    .send_get(&targets[i])
                    .map_err(|e| format!("send forecast: {e}"))?;
            }
            out.attempt(1);
        }
        let Some((pair, ack_fp, sent)) = tags.pop_front() else {
            break;
        };
        let resp: Response = client.recv().map_err(|e| format!("response lost: {e}"))?;
        let us = micros(sent);
        let at = t0.elapsed().as_secs_f64();
        slices.add(at);
        pass.wall_s = at;
        pass.units += 1;
        if resp.status != 200 {
            out.fail(format!("hot_read: status {}", resp.status));
            continue;
        }
        match pair {
            None => {
                pass.ack_us.push(us);
                if proto::parse_window_fp(&resp.body) != Ok(ack_fp) {
                    out.fail("hot_read: ack declares another window".to_string());
                }
            }
            Some(i) => {
                pass.wait_ms.push(us / 1e3);
                match pass.tally.record(&resp.body) {
                    AnswerSource::Hit => pass.hit_us.push(us),
                    AnswerSource::Memo | AnswerSource::Miss => pass.model_us.push(us),
                    AnswerSource::Other => {
                        out.fail("hot_read: answer without a cache field".to_string())
                    }
                }
                answered += 1;
                if answered.is_multiple_of(HOT_VERIFY_EVERY) {
                    let (sensor, horizon) = pairs[i];
                    pass.samples.push(Sample {
                        body: resp.body,
                        sensor,
                        horizon,
                    });
                }
            }
        }
    }
    drop(client);
    pass.rate = slices
        .median_rate(pass.wall_s)
        .ok_or("hot_read ran shorter than one slice")?;
    pass.stats = stats_delta(dep, &before, out)?;
    Ok(pass)
}

/// Check kept answers bitwise against direct eval of what they declare.
pub fn verify_samples(samples: &[Sample], oracle: &mut Oracle, out: &mut Outcome) {
    for s in samples {
        out.attempt(1);
        if let Err(e) = oracle.verify(&s.body, s.sensor, s.horizon) {
            out.fail(format!("served forecast differs from direct eval: {e}"));
        }
    }
    oracle.clear_forwards();
}

/// A short fixed script that exercises every serve path once per round
/// (observe ack, model answers, cache hits), for traced runs whose own
/// load lacks one of them.
pub fn serve_script(
    dep: &mut Deployment,
    frames: &Frames,
    pairs: &[(u32, u32)],
    oracle: &mut Oracle,
    rounds: usize,
    out: &mut Outcome,
) -> Result<ServePass, String> {
    let before = dep.stats()?;
    let mut pass = ServePass::default();
    let version = version_tag(dep.version);
    for _ in 0..rounds {
        let frame = frames.frame(dep.next_frame);
        dep.next_frame += 1;
        dep.window.push(&frame);
        let fp = oracle.add_window(&dep.window);
        let tag = fp_tag(fp);
        let sent = Instant::now();
        let ack = dep
            .control
            .post("/observe", &observe_body(&frame))
            .map_err(|e| format!("observe: {e}"))?;
        pass.ack_us.push(micros(sent));
        out.attempt(1);
        if ack.status != 200 || proto::parse_window_fp(&ack.body) != Ok(fp) {
            out.fail("script: observe ack".to_string());
        }
        pass.frames += 1;
        // Twice over every pair: the first read evaluates, the second hits.
        for _ in 0..2 {
            for &(sensor, horizon) in pairs {
                let sent = Instant::now();
                let resp = dep
                    .control
                    .get(&forecast_target(sensor, horizon))
                    .map_err(|e| format!("forecast: {e}"))?;
                let us = micros(sent);
                out.attempt(1);
                let source = pass.tally.record(&resp.body);
                if resp.status != 200 || !declares(&resp.body, &version, &tag) {
                    out.fail(format!("script: sensor {sensor} answer"));
                    continue;
                }
                if source.is_model() {
                    pass.model_us.push(us);
                } else if source == AnswerSource::Hit {
                    pass.hit_us.push(us);
                }
                if horizon as usize == HORIZON && sensor == pairs[0].0 {
                    pass.samples.push(Sample {
                        body: resp.body,
                        sensor,
                        horizon,
                    });
                }
            }
        }
    }
    pass.stats = stats_delta(dep, &before, out)?;
    Ok(pass)
}
