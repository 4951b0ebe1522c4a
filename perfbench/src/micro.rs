//! Layer timings of the wire codec and the USIG, measured in the traced run
//! on frames shaped like the workload's traffic.

use crate::stats;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;
use tolerance_consensus::crypto::{Digest, KeyDirectory, KeyPair};
use tolerance_consensus::minbft::{batch_digest, Message, Request};
use tolerance_consensus::usig::UsigVerifier;
use tolerance_consensus::wire::{decode_frame_body, encode_frame};
use tolerance_consensus::workload::OpStream;
use tolerance_consensus::{ThreadedServiceConfig, Usig, CLIENT_ID_BASE};

/// The traffic shape the frames are built with.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    pub replicas: usize,
    pub batch: usize,
    pub key_space: u32,
    pub checkpoint_period: u64,
    pub seed: u64,
}

impl Shape {
    pub fn of_service(config: &ThreadedServiceConfig) -> Self {
        Shape {
            replicas: config.replicas,
            batch: config.batch_size,
            key_space: config.key_space,
            checkpoint_period: config.checkpoint_period,
            seed: config.seed,
        }
    }

    /// Frames of each kind per request in the normal case with full
    /// batches: the client broadcasts to n replicas, the leader prepares to
    /// n−1, each of the n−1 backups commits to the n−1 others, every
    /// replica replies, and every replica announces each checkpoint.
    fn frames_per_request(&self) -> [f64; 5] {
        let n = self.replicas as f64;
        let b = self.batch.max(1) as f64;
        let checkpoint = if self.checkpoint_period == 0 {
            0.0
        } else {
            n * (n - 1.0) / (self.checkpoint_period as f64 * b)
        };
        [n, (n - 1.0) / b, (n - 1.0) * (n - 1.0) / b, n, checkpoint]
    }
}

const KINDS: [&str; 5] = ["request", "prepare", "commit", "reply", "checkpoint"];

/// Nanoseconds per call of `op`: the median over repeated ~5 ms batches.
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        if start.elapsed().as_secs_f64() > 0.005 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                op();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&samples)
}

/// Times the codec per frame kind and the USIG, recording one span per
/// timed loop; returns the layer metrics and any failed round-trip check.
/// `frames_per_req` is the socket plane's measured frames per request (0
/// where no frame crosses a socket).
pub fn measure(
    tracer: &mut Tracer,
    shape: Shape,
    frames_per_req: f64,
) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let root_start = Instant::now();
    let root = tracer.reserve();
    let keys = KeyPair::derive(0, shape.seed);
    let mut usig = Usig::new(keys.clone());
    let mut stream = OpStream::new(shape.seed, shape.key_space, 0.5);
    let requests: Vec<Request> = (0..shape.batch.max(1) as u64)
        .map(|id| Request {
            client: CLIENT_ID_BASE + id as u32,
            id: 1_000_000 + id,
            operation: stream.next_op(),
        })
        .collect();
    let digest = batch_digest(&requests);
    let ui = usig.create_ui(digest);
    let messages = [
        Message::Request(requests[0]),
        Message::Prepare {
            view: 3,
            sequence: 100_000,
            requests: requests.clone(),
            ui,
        },
        Message::Commit {
            view: 3,
            sequence: 100_000,
            batch_digest: digest,
            ui,
        },
        Message::Reply {
            request_id: 1_000_000,
            value: u64::MAX / 3,
            sequence: 100_000,
        },
        Message::Checkpoint {
            sequence: 100_000,
            log_len: 1_600_000,
            state_digest: Digest(0x0123_4567_89ab_cdef),
        },
    ];
    let names: [[&'static str; 3]; 5] = [
        [
            "wire.request.encode_ns",
            "wire.request.decode_ns",
            "wire.request.frame_bytes",
        ],
        [
            "wire.prepare.encode_ns",
            "wire.prepare.decode_ns",
            "wire.prepare.frame_bytes",
        ],
        [
            "wire.commit.encode_ns",
            "wire.commit.decode_ns",
            "wire.commit.frame_bytes",
        ],
        [
            "wire.reply.encode_ns",
            "wire.reply.decode_ns",
            "wire.reply.frame_bytes",
        ],
        [
            "wire.checkpoint.encode_ns",
            "wire.checkpoint.decode_ns",
            "wire.checkpoint.frame_bytes",
        ],
    ];
    let mut layers = Vec::new();
    let mut problems = Vec::new();
    let mut per_frame_ns = [0.0; 5];
    for (kind, message) in messages.iter().enumerate() {
        let (from, to) = (1, 2);
        let frame = encode_frame(from, to, message);
        match decode_frame_body(&frame[4..]) {
            Ok((f, t, decoded)) if f == from && t == to && decoded == *message => {}
            other => problems.push(format!(
                "wire round trip of a {} frame failed: {other:?}",
                KINDS[kind]
            )),
        }
        let start = Instant::now();
        let encode = ns_per_call(|| {
            black_box(encode_frame(from, to, black_box(message)));
        });
        let middle = Instant::now();
        let decode = ns_per_call(|| {
            let _ = black_box(decode_frame_body(black_box(&frame[4..])));
        });
        tracer.record("wire.encode", Some(root), 0, start, middle);
        tracer.record("wire.decode", Some(root), 0, middle, Instant::now());
        per_frame_ns[kind] = encode + decode;
        layers.push((names[kind][0], encode));
        layers.push((names[kind][1], decode));
        layers.push((names[kind][2], frame.len() as f64));
    }
    let mix = shape.frames_per_request();
    let mean_frame_ns = mix
        .iter()
        .zip(per_frame_ns)
        .map(|(share, ns)| share * ns)
        .sum::<f64>()
        / mix.iter().sum::<f64>();
    layers.push(("wire.ns_per_req", frames_per_req * mean_frame_ns));

    let start = Instant::now();
    let mut counter = 0u64;
    let create = ns_per_call(|| {
        counter += 1;
        black_box(usig.create_ui(black_box(Digest(counter))));
    });
    let middle = Instant::now();
    let mut directory = KeyDirectory::new();
    directory.register(&keys);
    let verifier = UsigVerifier::new(directory);
    if !verifier.verify_certificate(digest, &ui) {
        problems.push("the USIG certificate of the test batch did not verify".into());
    }
    let verify = ns_per_call(|| {
        black_box(verifier.verify_certificate(black_box(digest), black_box(&ui)));
    });
    let end = Instant::now();
    tracer.record("usig.create_ui", Some(root), 0, start, middle);
    tracer.record("usig.verify", Some(root), 0, middle, end);
    tracer.record_as(root, "layer.timings", None, 0, root_start, end);
    layers.push(("usig.create_ui_ns", create));
    layers.push(("usig.verify_ns", verify));
    (layers, problems)
}
