//! The `http-mixed` workload: `HttpServer` on loopback serving the dense
//! micro model, driven closed loop over keep-alive connections with a
//! seeded mix of f32, Q7.8 and P3DVID1 bodies, a quarter of them resent.

use crate::inputs::{
    http_stream, BodyKind, ModelArtifact, WireRequest, HTTP_STREAM_LEN, MICRO_SHAPE,
};
use crate::report::{bits, Tally};
use crate::trace::{Tracer, ROOT};
use p3d_infer::json::response_json;
use p3d_infer::wire::{
    decode_clip, decode_vid_body, read_body, read_request_head, write_response, BodyReader,
};
use p3d_infer::{
    ClipResult, F32Engine, HttpServer, InferenceEngine, Response, ServeConfig, ServeSnapshot,
    ServerConfig, WireLimits,
};
use p3d_tensor::{simd, Tensor};
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Client connections, each a closed loop.
pub const CONNECTIONS: usize = 2;
/// Response-cache capacity. A repeat sits at most 16 requests behind its
/// original on its connection, so it hits; a stream wraps after far more
/// distinct clips than this, so a wrapped request misses.
pub const CACHE_ENTRIES: usize = 64;

/// The workload's inputs: the model, one request stream a connection,
/// and the reference logits of every request.
pub struct HttpInputs {
    pub art: ModelArtifact,
    pub streams: Vec<Vec<WireRequest>>,
    pub want: Vec<Vec<Vec<u32>>>,
}

impl HttpInputs {
    /// Synthesizes the streams and computes every reference answer in
    /// process: the request bytes are decoded by the wire functions and
    /// run through a dense `F32Engine` on the same weights.
    pub fn new(seed: u64) -> HttpInputs {
        let art = ModelArtifact::dense_micro(seed);
        let streams: Vec<Vec<WireRequest>> = (0..CONNECTIONS)
            .map(|c| http_stream(seed, c, HTTP_STREAM_LEN))
            .collect();
        let ckpt = art.parse();
        let mut engine = F32Engine::new(1, || art.build(&ckpt));
        let want = streams
            .iter()
            .map(|s| {
                s.iter()
                    .map(|r| {
                        bits(
                            &engine.infer_batch(&[decode(r, &mut Tracer::off(), ROOT, 0)])[0]
                                .logits,
                        )
                    })
                    .collect()
            })
            .collect();
        HttpInputs { art, streams, want }
    }

    /// Brings a server up from the checkpoint bytes in memory to its
    /// first response read back, recording each step when traced.
    /// Returns the server and the bring-up time in seconds.
    pub fn bring_up(&self, tr: &mut Tracer) -> (HttpServer, f64) {
        let t0 = Instant::now();
        let root = tr.open("setup", ROOT, 0);
        let ckpt = tr.time("setup.http.ckpt_parse", root, 0, || self.art.parse());
        let engine = tr.time("setup.http.build_restore", root, 0, || {
            F32Engine::new(1, || self.art.build(&ckpt))
        });
        let server = tr.time("setup.server_start", root, 0, || {
            HttpServer::start(serve_config(), Box::new(engine), None).expect("bind a loopback port")
        });
        tr.time("setup.first_response", root, 0, || {
            let mut client = Client::connect(server.local_addr()).expect("connect to loopback");
            client
                .exchange(&self.streams[0][0].bytes)
                .expect("first response");
            assert!(
                response_matches(client.body(), &self.want[0][0]),
                "first response is wrong"
            );
        });
        tr.close(root);
        (server, t0.elapsed().as_secs_f64())
    }
}

/// Dense micro model, one replica, response cache on, no rate limit.
fn serve_config() -> ServeConfig {
    ServeConfig {
        server: ServerConfig {
            expected_shape: Some(MICRO_SHAPE),
            ..ServerConfig::default()
        },
        cache_capacity: CACHE_ENTRIES,
        ..ServeConfig::default()
    }
}

/// Decodes one request in process, stage by stage through the wire
/// functions the server runs, recording each stage as a span.
fn decode(r: &WireRequest, tr: &mut Tracer, parent: usize, request: u64) -> Tensor {
    let limits = WireLimits::default();
    let mut cur = Cursor::new(&r.bytes[..]);
    let (mut req, framing) = tr
        .time("wire.head_parse", parent, request, || {
            read_request_head(&mut cur, &mut Vec::new(), &limits)
        })
        .expect("well-formed head")
        .expect("one request");
    let clip = match r.kind {
        BodyKind::Vid => {
            let declared = framing.declared.expect("content length");
            let mut body = BodyReader::new(&mut cur, framing);
            tr.time("wire.decode_vid", parent, request, || {
                decode_vid_body(&req, &mut body, declared, &limits)
            })
        }
        kind => {
            read_body(&mut cur, &mut req, framing).expect("complete body");
            let name = if kind == BodyKind::F32 {
                "wire.decode_f32"
            } else {
                "wire.decode_q78"
            };
            tr.time(name, parent, request, || decode_clip(&req))
        }
    };
    clip.expect("valid body")
}

/// A keep-alive HTTP/1.1 client that reads each response into one
/// reused buffer.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    body_at: usize,
}

/// The timing of one request: first request byte written to first
/// response byte read, and to last response byte read.
#[derive(Clone, Copy, Debug)]
pub struct Exchange {
    pub ttfb_ms: f64,
    pub total_ms: f64,
    pub status: u16,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 14),
            body_at: 0,
        })
    }

    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Exchange> {
        let t0 = Instant::now();
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut first = None;
        let mut need = usize::MAX;
        while self.buf.len() < need {
            let len = self.buf.len();
            self.buf.resize(len + 4096, 0);
            let got = self.stream.read(&mut self.buf[len..])?;
            self.buf.truncate(len + got);
            if got == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            first.get_or_insert_with(Instant::now);
            if need == usize::MAX {
                if let Some(head) = find(&self.buf, b"\r\n\r\n") {
                    self.body_at = head + 4;
                    need = self.body_at
                        + content_length(&self.buf[..head])
                            .ok_or(std::io::ErrorKind::InvalidData)?;
                }
            }
        }
        let end = Instant::now();
        let ms = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
        let status = std::str::from_utf8(self.buf.get(9..12).unwrap_or_default())
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        Ok(Exchange {
            ttfb_ms: ms(first.expect("read at least one byte")),
            total_ms: ms(end),
            status,
        })
    }

    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_at..]
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn content_length(head: &[u8]) -> Option<usize> {
    let head = std::str::from_utf8(head).ok()?;
    head.split("\r\n").find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse().ok())?
    })
}

/// `true` when a `/v1/infer` response body carries exactly the logit
/// bit patterns `want` in its `logits_bits` array.
pub fn response_matches(body: &[u8], want: &[u32]) -> bool {
    const KEY: &[u8] = b"\"logits_bits\": [";
    let Some(at) = find(body, KEY) else {
        return false;
    };
    let rest = &body[at + KEY.len()..];
    let Some(close) = rest.iter().position(|&b| b == b']') else {
        return false;
    };
    let Ok(list) = std::str::from_utf8(&rest[..close]) else {
        return false;
    };
    let mut n = 0;
    for (i, part) in list.split(',').enumerate() {
        if want.get(i) != part.trim().parse::<u32>().ok().as_ref() {
            return false;
        }
        n += 1;
    }
    n == want.len()
}

/// What a connection measured since its stats were last taken.
#[derive(Default)]
pub struct ClientStats {
    pub completed: usize,
    /// Per-request time, first request byte written to last response
    /// byte read, milliseconds.
    pub total_ms: Vec<f64>,
    pub tally: Tally,
}

/// One client connection, kept open across segments so the server runs
/// the same handler threads all run long. It resumes its request stream
/// where the last segment left it.
pub struct Conn {
    id: usize,
    addr: SocketAddr,
    client: Client,
    next: usize,
    stats: ClientStats,
}

impl Conn {
    /// Opens `CONNECTIONS` connections to `addr`.
    pub fn open_all(addr: SocketAddr) -> Vec<Conn> {
        (0..CONNECTIONS)
            .map(|id| Conn {
                id,
                addr,
                client: Client::connect(addr).expect("connect to loopback"),
                next: 0,
                stats: ClientStats {
                    total_ms: Vec::with_capacity(1 << 16),
                    ..ClientStats::default()
                },
            })
            .collect()
    }

    /// Sends requests closed loop until `until`.
    fn run(&mut self, inputs: &HttpInputs, until: Instant, tr: &mut Tracer) {
        let stream = &inputs.streams[self.id];
        let want = &inputs.want[self.id];
        while Instant::now() < until {
            let i = self.next % stream.len();
            self.next += 1;
            let t0 = Instant::now();
            match self.client.exchange(&stream[i].bytes) {
                Ok(x) => {
                    let t_end = Instant::now();
                    self.stats.completed += 1;
                    self.stats.total_ms.push(x.total_ms);
                    if tr.is_on() {
                        let request = ((self.id as u64) << 32) | self.next as u64;
                        let id = tr.record("client.request", ROOT, request, t0, t_end);
                        let first = t0 + std::time::Duration::from_secs_f64(x.ttfb_ms * 1e-3);
                        tr.record("client.ttfb", id, request, t0, first);
                    }
                    let ok = x.status == 200 && response_matches(self.client.body(), &want[i]);
                    self.stats.tally.record(ok);
                }
                Err(_) => {
                    self.stats.tally.record(false);
                    self.client = Client::connect(self.addr).expect("reconnect to loopback");
                }
            }
        }
    }
}

/// Drives every connection closed loop, one thread each, until `until`,
/// and returns what they measured. When `tr` is on, each connection
/// records its spans into a tracer of its own, merged into `tr`.
pub fn drive(
    inputs: &HttpInputs,
    conns: &mut [Conn],
    until: Instant,
    tr: &mut Tracer,
) -> ClientStats {
    let traced = tr.is_on();
    let epoch = tr.epoch();
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut ctr = if traced {
                        Tracer::new(epoch)
                    } else {
                        Tracer::off()
                    };
                    conn.run(inputs, until, &mut ctr);
                    ctr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    tracers.into_iter().for_each(|ctr| tr.merge(ctr));
    let mut all = ClientStats::default();
    for conn in conns.iter_mut() {
        all.completed += conn.stats.completed;
        all.total_ms.extend_from_slice(&conn.stats.total_ms);
        all.tally.add(conn.stats.tally);
        conn.stats.completed = 0;
        conn.stats.total_ms.clear();
        conn.stats.tally = Tally::default();
    }
    all
}

/// Replays the first `n` requests of stream 0 through each public stage
/// function the server runs — head parse, body decode, engine, JSON
/// render, response write — as spans under one `replay` span a request,
/// and checks each answer.
pub fn replay_stages(inputs: &HttpInputs, n: usize, tr: &mut Tracer, tally: &mut Tally) {
    let ckpt = inputs.art.parse();
    let mut engine = F32Engine::new(1, || inputs.art.build(&ckpt));
    let feats = simd::cpu_features();
    let mut out = [ClipResult::default()];
    let mut wbuf: Vec<u8> = Vec::with_capacity(4096);
    for (i, r) in inputs.streams[0].iter().enumerate().take(n) {
        let request = i as u64;
        let root = tr.open("replay", ROOT, request);
        let clip = decode(r, tr, root, request);
        tr.time("engine.f32.clip", root, request, || {
            engine.infer_batch_into(std::slice::from_ref(&clip), &mut out)
        });
        let resp = Response {
            index: i,
            outcome: Ok(out[0].clone()),
            backend: "f32".to_string(),
            fell_back: false,
            attempts: 1,
            latency_ms: 0.0,
            deadline_missed: false,
            saturation: 0.0,
            model_hash: "unkeyed".to_string(),
        };
        let body = tr.time("json.render", root, request, || {
            response_json(
                &resp,
                simd::active().name(),
                if feats.is_empty() { "none" } else { feats },
            )
        });
        wbuf.clear();
        tr.time("wire.write", root, request, || {
            write_response(
                &mut wbuf,
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                false,
            )
        })
        .expect("writing to memory cannot fail");
        tr.close(root);
        tally.record(response_matches(body.as_bytes(), &inputs.want[0][i]));
    }
}

/// Engine-served clips per engine batch, and the response-cache hit
/// ratio, between two server snapshots.
pub fn batching(before: &ServeSnapshot, after: &ServeSnapshot) -> (f64, f64) {
    let hits = (after.cache.2 - before.cache.2) as f64;
    let misses = (after.cache.3 - before.cache.3) as f64;
    let batches = (after.batches - before.batches) as f64;
    let completed = (after.budget.completed - before.budget.completed) as f64;
    ((completed - hits) / batches, hits / (hits + misses))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(logits: Vec<f32>) -> String {
        let resp = Response {
            index: 0,
            outcome: Ok(ClipResult {
                prediction: 0,
                logits,
            }),
            backend: "f32".to_string(),
            fell_back: false,
            attempts: 1,
            latency_ms: 0.0,
            deadline_missed: false,
            saturation: 0.0,
            model_hash: "unkeyed".to_string(),
        };
        response_json(&resp, "scalar", "none")
    }

    #[test]
    fn a_response_with_one_flipped_logit_bit_counts_as_failed() {
        let logits = vec![0.5f32, -2.25, 1e-3];
        let body = rendered(logits.clone());
        let want = bits(&logits);
        let mut tally = Tally::default();
        tally.record(response_matches(body.as_bytes(), &want));
        let mut flipped = want.clone();
        flipped[2] ^= 1;
        tally.record(response_matches(body.as_bytes(), &flipped));
        tally.record(response_matches(body.as_bytes(), &want[..2]));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }

    #[test]
    fn served_logits_match_the_in_process_reference() {
        let inputs = HttpInputs::new(5);
        let (server, _) = inputs.bring_up(&mut Tracer::off());
        let mut conns = Conn::open_all(server.local_addr());
        let until = Instant::now() + std::time::Duration::from_millis(400);
        let stats = drive(&inputs, &mut conns, until, &mut Tracer::off());
        drop(conns);
        let snap = server.shutdown();
        assert!(stats.tally.attempted > 10);
        assert_eq!(stats.tally.failed, 0);
        assert!(snap.cache.2 > 0, "repeats must hit the response cache");
        assert!(snap.vid_clips > 0);
    }
}
