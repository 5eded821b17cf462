//! Deterministic fuzz corpora for the serve input edges: the HTTP
//! request parser and the `POST /observe` body parser. Every input —
//! random bytes, token soup, valid requests cut at every byte — must
//! come back as a typed outcome, never a panic or a stack overflow.

use proptest::collection::vec;
use proptest::prelude::*;
use stwa_serve::http::{parse_request, Parse, MAX_BODY};
use stwa_serve::proto::parse_observe;

/// Fragments that make token soup look like HTTP often enough to reach
/// the header, length and body branches.
const HTTP_TOKENS: &[&[u8]] = &[
    b"GET",
    b"POST",
    b" ",
    b"/forecast",
    b"/observe",
    b"?sensor=1&horizon=2",
    b" HTTP/1.1",
    b" HTTP/1.0",
    b" HTTP/2",
    b"\r\n",
    b"\r\n\r\n",
    b"Host: fuzz",
    b"Content-Length: ",
    b"0",
    b"7",
    b"99999999999",
    b"-1",
    b"Connection: close",
    b"Connection: keep-alive",
    b"Transfer-Encoding: chunked",
    b":",
    b"\n",
    b"\xff\xfe",
    b"{\"frame\":[1]}",
];

/// The invariants of one parse step over `buf`.
fn check_parse(buf: &[u8]) {
    match parse_request(buf) {
        Parse::Complete(req, used) => {
            assert!(
                used > 0 && used <= buf.len(),
                "consumed {used} of {}",
                buf.len()
            );
            assert!(req.body.len() <= MAX_BODY);
            // The parser is incremental: every strict prefix of a
            // complete request is a prefix, not an error.
            for cut in 0..used {
                assert!(
                    matches!(parse_request(&buf[..cut]), Parse::Partial),
                    "prefix {cut}/{used} of a complete request did not parse as Partial"
                );
            }
        }
        Parse::Partial => {}
        Parse::Bad(status, reason) => {
            assert!((400..600).contains(&status), "status {status}");
            assert!(!reason.is_empty());
        }
    }
}

/// One well-formed request and the fields it should parse into.
struct Wire {
    bytes: Vec<u8>,
    method: &'static str,
    path: &'static str,
    query: String,
    body: Vec<u8>,
    keep_alive: bool,
}

fn wire(shape: (usize, usize, usize, usize), sensor: u32, body: Vec<u8>) -> Wire {
    let (method_i, path_i, version_i, conn_i) = shape;
    let method = ["GET", "POST"][method_i];
    let path = ["/forecast", "/observe", "/stats"][path_i];
    let query = if path_i == 0 {
        format!("sensor={sensor}&horizon={}", sensor % 12)
    } else {
        String::new()
    };
    let http11 = version_i == 0;
    let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
    let (conn, keep_alive) = [
        ("", http11),
        ("Connection: close\r\n", false),
        ("Connection: keep-alive\r\n", true),
    ][conn_i];
    let target = if query.is_empty() {
        path.to_string()
    } else {
        format!("{path}?{query}")
    };
    let mut bytes = format!("{method} {target} {version}\r\nHost: fuzz\r\n{conn}").into_bytes();
    if !body.is_empty() || method == "POST" {
        bytes.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(&body);
    Wire {
        bytes,
        method,
        path,
        query,
        body,
        keep_alive,
    }
}

/// Drain every complete request from the front of `buf`.
fn drain(buf: &mut Vec<u8>, out: &mut Vec<stwa_serve::http::Request>) {
    while let Parse::Complete(req, used) = parse_request(buf) {
        buf.drain(..used);
        out.push(req);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn http_parser_survives_arbitrary_bytes(bytes in vec(any::<u8>(), 0..512)) {
        check_parse(&bytes);
    }

    #[test]
    fn http_parser_survives_token_soup(tokens in vec(0usize..HTTP_TOKENS.len(), 0..40)) {
        let buf: Vec<u8> = tokens.iter().flat_map(|&t| HTTP_TOKENS[t].iter().copied()).collect();
        check_parse(&buf);
    }

    #[test]
    fn parse_observe_survives_arbitrary_bytes(
        bytes in vec(any::<u8>(), 0..256),
        expect in 0usize..6,
    ) {
        if let Ok(frame) = parse_observe(&bytes, expect) {
            prop_assert_eq!(frame.len(), expect);
            prop_assert!(frame.iter().all(|v| v.is_finite()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two pipelined valid requests, delivered in two reads split at
    /// every byte, parse into exactly those two requests.
    #[test]
    fn valid_requests_split_at_every_byte(
        first in (0usize..2, 0usize..3, 0usize..2, 0usize..3),
        second in (0usize..2, 0usize..3, 0usize..2, 0usize..3),
        sensor in any::<u32>(),
        body in vec(any::<u8>(), 0..48),
    ) {
        let reqs = [wire(first, sensor, body.clone()), wire(second, sensor / 7, Vec::new())];
        let stream: Vec<u8> = reqs.iter().flat_map(|w| w.bytes.iter().copied()).collect();
        for cut in 0..=stream.len() {
            let mut buf = stream[..cut].to_vec();
            let mut parsed = Vec::new();
            drain(&mut buf, &mut parsed);
            buf.extend_from_slice(&stream[cut..]);
            drain(&mut buf, &mut parsed);
            prop_assert!(buf.is_empty(), "cut {cut}: {} bytes left over", buf.len());
            prop_assert_eq!(parsed.len(), 2, "cut {}", cut);
            for (req, want) in parsed.iter().zip(&reqs) {
                prop_assert_eq!(req.method.as_str(), want.method);
                prop_assert_eq!(req.path.as_str(), want.path);
                prop_assert_eq!(&req.query_raw, &want.query);
                prop_assert_eq!(&req.body, &want.body);
                prop_assert_eq!(req.keep_alive, want.keep_alive);
            }
        }
    }

    /// Observe bodies built from finite f32s, overflowing, non-numeric
    /// and nested values: `Ok` exactly when the frame holds `expect`
    /// finite values under the `frame` key, and then bit-exact.
    #[test]
    fn parse_observe_accepts_exactly_finite_frames(
        values in vec((0usize..8, any::<u32>()), 0..8),
        envelope in 0usize..4,
        expect in 0usize..8,
    ) {
        let mut want = Vec::new();
        let mut all_finite = true;
        let items: Vec<String> = values
            .iter()
            .map(|&(kind, bits)| match kind {
                0..=3 => {
                    let x = f32::from_bits(bits);
                    let x = if x.is_finite() { x } else { bits as f32 };
                    want.push(x);
                    // f64 Display round-trips exactly, and the f64 -> f32
                    // cast is exact for a value that started as an f32.
                    format!("{}", x as f64)
                }
                kind => {
                    all_finite = false;
                    ["1e39", "null", "\"7\"", "[1]"][kind - 4].to_string()
                }
            })
            .collect();
        let frame = items.join(",");
        let body = match envelope {
            0 => format!("{{\"frame\":[{frame}]}}"),
            1 => format!("{{\"x\":1, \"frame\": [ {frame} ] }}"),
            2 => format!("{{\"fram\":[{frame}]}}"),
            _ => format!("{{\"frame\":[{frame}]}}]"),
        };
        let ok = envelope < 2 && all_finite && values.len() == expect;
        match parse_observe(body.as_bytes(), expect) {
            Ok(got) => {
                prop_assert!(ok, "accepted {body}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want));
            }
            Err(e) => prop_assert!(!ok, "rejected {body}: {e}"),
        }
    }
}

#[test]
fn parse_observe_rejects_deep_nesting_without_overflowing() {
    // A body inside the 1 MB limit that nests far deeper than any
    // frame: a typed error, not a stack overflow of the IO worker.
    for open in ["[", "{\"frame\":"] {
        let body = format!("{{\"frame\":{}", open.repeat(MAX_BODY / 16));
        assert!(parse_observe(body.as_bytes(), 1).is_err());
    }
}
