//! Wire format over real TCP: every reply frame read back from a live
//! server is byte-identical to the 4-byte big-endian length prefix plus
//! the JSON encoding of the expected reply — for an inference request, a
//! control scrape and an oversized-frame rejection.

use std::io::{Read, Write};
use std::net::TcpStream;

use ull_data::{generate, SynthCifarConfig};
use ull_nn::models;
use ull_serve::{
    connect_with_retry, write_frame, BreakerState, ControlReply, ControlRequest, Engine,
    FrameError, ReplicaSpec, Reply, Request, RetryPolicy, RungLabel, ServeConfig, Server,
};
use ull_snn::{SnnNetwork, SpikeSpec};
use ull_tensor::Tensor;

const CLASSES: usize = 3;
const SIDE: usize = 8;
const T_FULL: usize = 2;

/// The frame bytes the protocol defines for `json`: big-endian `u32`
/// length, then the payload.
fn frame(json: &str) -> Vec<u8> {
    let mut bytes = (json.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(json.as_bytes());
    bytes
}

/// Reads one raw frame (prefix included) off the socket.
fn read_raw_frame(conn: &mut TcpStream) -> Vec<u8> {
    let mut prefix = [0u8; 4];
    conn.read_exact(&mut prefix).expect("length prefix");
    let mut bytes = prefix.to_vec();
    bytes.resize(4 + u32::from_be_bytes(prefix) as usize, 0);
    conn.read_exact(&mut bytes[4..]).expect("payload");
    bytes
}

#[test]
fn reply_frames_are_byte_identical_to_the_protocol_encoding() {
    let dnn = models::vgg_micro(CLASSES, SIDE, 0.25, 5);
    let specs = vec![SpikeSpec::identity(0.05); dnn.threshold_nodes().len()];
    let net = SnnNetwork::from_network(&dnn, &specs).unwrap();
    let cfg = ServeConfig {
        input_shape: vec![3, SIDE, SIDE],
        t_full: T_FULL,
        t_reduced: 1,
        workers: 1,
        ..ServeConfig::default()
    };
    let engine = Engine::new(
        cfg,
        vec![ReplicaSpec {
            name: "primary".to_string(),
            net: net.clone(),
            envelope_full: None,
            envelope_reduced: None,
        }],
        None,
    );
    let mut server = Server::start(engine);
    let addr = server.listen("127.0.0.1:0").unwrap();
    let mut conn = connect_with_retry(addr, &RetryPolicy::default()).unwrap();
    assert!(conn.nodelay().unwrap());

    // Inference request: the logits are the offline forward's, bit for bit.
    let (_, test) = generate(&SynthCifarConfig::tiny(CLASSES));
    let x = test.eval_batches(1).next().unwrap().images;
    let req = Request {
        id: 41,
        pixels: x.data().to_vec(),
        shape: vec![3, SIDE, SIDE],
        deadline_ms: None,
    };
    write_frame(&mut conn, serde_json::to_string(&req).unwrap().as_bytes()).unwrap();
    let got = read_raw_frame(&mut conn);
    let reply: Reply =
        serde_json::from_str(std::str::from_utf8(&got[4..]).unwrap()).expect("typed reply");
    let logits = net
        .forward(
            &Tensor::from_vec(req.pixels.clone(), &[1, 3, SIDE, SIDE]).unwrap(),
            T_FULL,
        )
        .logits
        .data()
        .to_vec();
    assert!(logits.iter().any(|&v| v != 0.0), "the net must spike");
    // The server's argmax: the last index on ties.
    let class = (0..CLASSES)
        .max_by(|&a, &b| logits[a].total_cmp(&logits[b]))
        .unwrap();
    let want = Reply::Prediction {
        id: 41,
        trace: reply.trace(),
        class,
        logits,
        rung: RungLabel::Full,
        steps: T_FULL,
    };
    assert_eq!(got, frame(&serde_json::to_string(&want).unwrap()));

    // Control scrape on the same connection.
    let scrape = ControlRequest::Health { id: 42 };
    write_frame(
        &mut conn,
        serde_json::to_string(&scrape).unwrap().as_bytes(),
    )
    .unwrap();
    let want = ControlReply::Health {
        id: 42,
        ok: true,
        draining: false,
        queue_depth: 0,
        breakers: vec![BreakerState::Closed],
    };
    assert_eq!(
        read_raw_frame(&mut conn),
        frame(&serde_json::to_string(&want).unwrap())
    );

    // Oversized frame: one typed rejection, then the server hangs up.
    let declared = ull_serve::MAX_FRAME_LEN + 1;
    conn.write_all(&declared.to_be_bytes()).unwrap();
    let want = Reply::BadRequest {
        id: 0,
        trace: 0,
        reason: FrameError::Oversized(declared).to_string(),
    };
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    assert_eq!(rest, frame(&serde_json::to_string(&want).unwrap()));

    drop(conn);
    server.shutdown();
}
