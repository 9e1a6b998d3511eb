//! The traced serving pass: the load generator's request sequence
//! replayed in-process against the archive, one public call per layer.
//!
//! The replay runs in turns with the serving session's steady phase
//! (`run::run_traced`), so the handler time measured here and the
//! client-side latency it is subtracted from see the same machine.
//!
//! Two passes over the same sequence, each on its own freshly loaded
//! world so both start from the same (cold) page cache: the first runs
//! what the daemon's worker runs per request (`read_request` →
//! `name_response` / `zone_response` → `Response::write_to`); the second
//! runs the calls `name_response` makes inside (closure view, TCB tally,
//! min-cut, lint over chain and name), which cannot be timed from
//! outside in the same pass. Every `*_us` metric is a median over the replayed requests —
//! the cost of a typical request, comparable with the client-side p50 —
//! and `query.serialize_us` is the median of the per-request self time
//! (that request's `name_response` span minus its four children).

use crate::serve::{request_bytes, Kind, Mix, ServePhase};
use crate::trace::Span;
use crate::trace::Trace;
use crate::util::{mean, median};
use crate::world::Inputs;
use perils_core::hijack::min_cut_flattened_view;
use perils_core::lint::{LintCtx, RuleRegistry};
use perils_core::{ClosureWorkspace, TcbTally, ZoneId};
use perils_dns::name::DnsName;
use perils_service::http::{read_request, Response};
use perils_service::query::{name_response, zone_response};
use perils_service::WorldSnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Requests per block of the interleaved passes.
const BLOCK: usize = 256;

fn load(phase: ServePhase, inputs: &Inputs) -> WorldSnapshot {
    WorldSnapshot::load_archive(&inputs.psa, 1, phase.backend()).expect("load archive")
}

fn sequence(phase: ServePhase, inputs: &Inputs, seed: u64, requests: usize) -> Vec<(Kind, String)> {
    let mut mix = Mix::new(phase, &inputs.by_popularity, seed, 0);
    (0..requests)
        .map(|_| {
            let (kind, path, _) = mix.next_request();
            (kind, path)
        })
        .collect()
}

/// What a worker does with one request, under spans when `trace` is
/// given. Returns the response bytes written.
fn handle(
    snap: &WorldSnapshot,
    rules: &RuleRegistry,
    ws: &mut ClosureWorkspace,
    kind: Kind,
    wire: &[u8],
    trace: &mut Option<&mut Trace>,
) -> usize {
    fn span<T>(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match trace {
            Some(trace) => trace.span(name, |_| f()),
            None => f(),
        }
    }
    let request = span(trace, "http.parse", || {
        read_request(&mut &wire[..]).expect("replayed request parses")
    });
    let response: Response = if let Some(raw) = request.path.strip_prefix("/name/") {
        let label = if kind == Kind::Name {
            "query.name"
        } else {
            "query.unknown"
        };
        span(trace, label, || name_response(snap, rules, ws, raw))
    } else {
        let raw = request.path.strip_prefix("/zone/").expect("zone request");
        span(trace, "query.zone", || zone_response(snap, rules, raw))
    };
    let mut out = Vec::with_capacity(response.body.len() + 128);
    span(trace, "http.write", || {
        response
            .write_to(&mut out, request.keep_alive, true)
            .expect("write to a Vec")
    });
    std::hint::black_box(out.len())
}

/// The replay of client 0's request sequence, resumable block by block so
/// the traced pass can run it between slices of the serving session's
/// steady phase: the in-process handler time and the client-side latency
/// it is compared with then see the same stretches of machine time.
pub struct Replay {
    phase: ServePhase,
    psa: PathBuf,
    rules: RuleRegistry,
    sequence: Vec<(Kind, String)>,
    wires: Vec<Vec<u8>>,
    /// The two traced passes run over two loaded worlds: each world (and
    /// its page cache) sees its own pass's accesses in order.
    worker: WorldSnapshot,
    inside: WorldSnapshot,
    worker_ws: ClosureWorkspace,
    inside_ws: ClosureWorkspace,
    /// Requests replayed so far.
    done: usize,
    bytes: Vec<f64>,
    servers: usize,
    self_us: Vec<f64>,
    traced_s: f64,
}

impl Replay {
    pub fn new(phase: ServePhase, inputs: &Inputs, seed: u64, requests: usize) -> Replay {
        let sequence = sequence(phase, inputs, seed, requests);
        let wires = sequence
            .iter()
            .map(|(_, path)| request_bytes("GET", path, ""))
            .collect();
        let (worker, inside) = (load(phase, inputs), load(phase, inputs));
        Replay {
            phase,
            psa: inputs.psa.clone(),
            rules: RuleRegistry::builtin(),
            sequence,
            wires,
            worker_ws: worker.index.workspace(),
            inside_ws: inside.index.workspace(),
            worker,
            inside,
            done: 0,
            bytes: Vec::with_capacity(requests),
            servers: 0,
            self_us: Vec::new(),
            traced_s: 0.0,
        }
    }

    /// How many blocks the whole sequence is.
    pub fn blocks(&self) -> usize {
        self.sequence.len().div_ceil(BLOCK)
    }

    /// Replays the next `blocks` blocks (fewer when the sequence ends).
    /// Per block the two passes alternate, so both see the same stretch
    /// of machine time.
    pub fn run_blocks(&mut self, trace: &mut Trace, blocks: usize) {
        for _ in 0..blocks {
            let block = self.done..(self.done + BLOCK).min(self.sequence.len());
            if block.is_empty() {
                return;
            }
            self.done = block.end;
            self.run_block(trace, block);
        }
    }

    fn run_block(&mut self, trace: &mut Trace, block: std::ops::Range<usize>) {
        // Pass one: the worker's calls.
        let start = Instant::now();
        let runs: Vec<u32> = block
            .clone()
            .map(|i| {
                let run = trace.next_run();
                let traced = &mut Some(&mut *trace);
                self.bytes.push(handle(
                    &self.worker,
                    &self.rules,
                    &mut self.worker_ws,
                    self.sequence[i].0,
                    &self.wires[i],
                    traced,
                ) as f64);
                run
            })
            .collect();
        self.traced_s += start.elapsed().as_secs_f64();
        let name_us = |run: u32| -> f64 {
            trace
                .spans()
                .iter()
                .rev()
                .take_while(|span| span.run >= runs[0])
                .filter(|span| span.run == run && span.name == "query.name")
                .map(Span::dur_us)
                .sum()
        };
        let block_name_us: Vec<f64> = runs.iter().map(|&run| name_us(run)).collect();

        // Pass two: the calls inside `name_response`.
        let inside = &self.inside;
        for (i, whole_us) in block.zip(block_name_us) {
            let (kind, path) = &self.sequence[i];
            if *kind != Kind::Name {
                continue;
            }
            trace.next_run();
            let first = trace.spans().len();
            let raw = path.strip_prefix("/name/").expect("name request");
            let target = DnsName::from_ascii(raw)
                .expect("target parses")
                .to_lowercase();
            let view = trace.span("closure.view", |_| {
                inside
                    .index
                    .closure_view(&inside.universe, &target, &mut self.inside_ws)
            });
            self.servers += view.server_count();
            let tally = trace.span("tcb.tally", |_| TcbTally::compute(&inside.universe, &view));
            let cut = trace.span("mincut.cut", |_| {
                min_cut_flattened_view(&inside.universe, &inside.index, &view)
            });
            let diagnostics = trace.span("lint.subjects", |_| {
                let mut chain: Vec<ZoneId> = view.target_chain().to_vec();
                chain.sort_by_key(|z| z.index());
                let ctx = LintCtx {
                    universe: &inside.universe,
                    index: &inside.index,
                    facts: &inside.lint,
                    zones: &chain,
                    servers: &[],
                    names: std::slice::from_ref(&target),
                };
                let mut out = Vec::new();
                for rule in self.rules.iter() {
                    out.extend(rule.check(&ctx));
                }
                out
            });
            std::hint::black_box((tally, cut, diagnostics));
            let children: f64 = trace.spans()[first..].iter().map(Span::dur_us).sum();
            self.self_us.push(whole_us - children);
        }
    }

    /// Replays whatever is left, then the two measurements that need no
    /// interleaving — archive loads and the untraced reference pass — and
    /// returns the in-process per-layer metrics.
    pub fn finish(mut self, trace: &mut Trace) -> BTreeMap<String, f64> {
        let left = self.blocks();
        self.run_blocks(trace, left);
        let Replay {
            phase,
            psa,
            rules,
            sequence,
            wires,
            worker,
            inside,
            worker_ws,
            inside_ws,
            bytes,
            servers,
            self_us,
            traced_s,
            ..
        } = self;
        drop((worker_ws, inside_ws, worker, inside));
        let mut layers = BTreeMap::new();

        // Archive load through the phase's backend, five fresh loads.
        let loads: Vec<f64> = (0..5)
            .map(|_| {
                trace.next_run();
                trace.span("snapshot.load", |_| {
                    let start = Instant::now();
                    let world = perils_survey::load_world_with(&psa, phase.backend())
                        .expect("load archive");
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    drop(std::hint::black_box(world));
                    ms
                })
            })
            .collect();
        layers.insert("snapshot.load_ms".into(), median(&loads));

        // Untraced reference pass, for the tracing overhead.
        let snap = WorldSnapshot::load_archive(&psa, 1, phase.backend()).expect("load archive");
        let mut ws = snap.index.workspace();
        let start = Instant::now();
        for ((kind, _), wire) in sequence.iter().zip(&wires) {
            handle(&snap, &rules, &mut ws, *kind, wire, &mut None);
        }
        let untraced_s = start.elapsed().as_secs_f64();
        layers.insert(
            "trace.replay_overhead_frac".into(),
            traced_s / untraced_s - 1.0,
        );

        for (metric, span) in [
            ("http.parse_us", "http.parse"),
            ("http.write_us", "http.write"),
            ("query.name_us", "query.name"),
            ("query.zone_us", "query.zone"),
            ("closure.view_us", "closure.view"),
            ("tcb.tally_us", "tcb.tally"),
            ("mincut.cut_us", "mincut.cut"),
            ("lint.subjects_us", "lint.subjects"),
        ] {
            layers.insert(metric.into(), median(&trace.durations_us(span)));
        }
        layers.insert("http.response_bytes".into(), mean(&bytes));
        // What a worker spends on a typical `/name` request, parse to write.
        layers.insert(
            "handler.name_us".into(),
            layers["http.parse_us"] + layers["query.name_us"] + layers["http.write_us"],
        );
        layers.insert(
            "closure.servers_mean".into(),
            servers as f64 / self_us.len().max(1) as f64,
        );
        layers.insert("query.serialize_us".into(), median(&self_us));
        layers
    }
}
