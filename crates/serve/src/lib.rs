//! `vlcsa-serve` — a batching request/response service over the adder
//! engines: the paper's variable-latency trade-off under real traffic.
//!
//! The point of a variable-latency adder is average-case service: 1-cycle
//! speculation with rare 2-cycle recoveries only pays off when a stream of
//! requests flows through the unit and the stalls are absorbed by
//! queueing. This crate is that serving-shaped workload for the
//! reproduction. Clients submit additions over TCP, each naming any engine
//! of [`vlcsa::engine::Registry`]; each connection's reader builds every
//! read's requests into one [`WideSlab`](bitnum::batch::WideSlab) issue
//! group per `(engine, width)` lane (up to `max_lanes` each), runs the
//! groups through the [`Executor`](vlcsa::exec::Executor) on its own
//! thread and answers the whole read with one write. In-process submits
//! and the C ABI form their groups with the same [`Staging`] and run them
//! on the calling thread too, so the service starts no thread of its own.
//! Every response carries the lane's exact sum, carry-out and cycle count,
//! so VLCSA stall accounting is visible end to end.
//!
//! The layers, bottom up:
//!
//! * [`protocol`] — the one request model ([`Request`], [`Response`])
//!   and its newline-delimited text codec;
//! * [`binary`] — the same model's binary codec, wire protocol v2:
//!   length-prefixed frames whose operands are raw little-endian limbs,
//!   negotiated per connection via a `HELLO` line
//!   ([`Client::connect_binary`]);
//! * [`service`] — the transport-independent core: validation
//!   ([`Operands`]) and routing to per-`(engine, width)` lanes, each of
//!   which runs its issue groups, built with
//!   [`vlcsa::group::LaneBuilder`], on whichever thread staged them — a
//!   stalling engine holds only the threads that named it;
//! * [`session`] — the one group former, [`Staging`], and the
//!   per-connection byte-stream state machine over sink traits: framing,
//!   the `HELLO` upgrade, one dispatcher for both framings' requests, and
//!   running each read's requests to completion, one issue group per lane
//!   and one reply batch per read — no socket required;
//! * [`server`] / [`client`] — the TCP front-end and the client library.
//!
//! Requests may also name the pseudo-engine `auto`: it is resolved per
//! request through [`vlcsa::route::Router`] — EWMA cycles/op estimates fed
//! by every completed group, degrading to a fixed-latency family when the
//! `SLO <micros>` p99 budget is breached — and the request then rides the
//! chosen engine's lane. `STATS` reports the current route per width, the
//! budget in force, and every lane traffic has named.
//!
//! # Quick start
//!
//! ```
//! use bitnum::UBig;
//! use vlcsa_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! // Engines are discoverable…
//! assert!(client.engines().unwrap().contains(&"vlcsa2".to_string()));
//!
//! // …and additions answer with latency accounting.
//! let a = UBig::from_u128(u64::MAX as u128, 64);
//! let b = UBig::from_u128(1, 64);
//! let response = client.add("vlcsa1", &a, &b).unwrap();
//! assert_eq!(response.sum.to_u128(), Some(0)); // u64::MAX + 1 wraps at width 64
//! assert!(response.cout);
//! assert!(response.cycles == 1 || response.cycles == 2);
//!
//! // One request can carry a whole reduction: the server compresses the
//! // operands carry-save style and resolves carries exactly once.
//! let ops: Vec<UBig> = (1..=8).map(|v| UBig::from_u128(v, 64)).collect();
//! assert_eq!(client.sum("vlcsa1", &ops).unwrap().sum.to_u128(), Some(36));
//!
//! client.close();
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod client;
pub mod protocol;
pub mod server;
pub mod service;
pub mod session;

pub use client::{AddResponse, Client, ClientError};
pub use protocol::{
    EngineStats, ErrorCode, LaneStats, Request, RequestError, Response, SloAction, StatsReport,
};
pub use server::Server;
pub use service::{AddResult, Operands, RegistryCache, Reply, ServeConfig, Service, SubmitError};
pub use session::{ByteSession, FeedOutcome, FrameSink, OkBatch, ResponseSink, Staging};
pub use vlcsa::program::Program;
pub use vlcsa::route::{RouteStat, Router, AUTO_ENGINE};
