//! The data plane: per-name and per-zone answers out of a warm
//! snapshot.
//!
//! Every response here is a pure function of the snapshot — no clocks,
//! no counters — which is what makes the daemon's byte-identity
//! contract (same snapshot, same bytes, any `--threads`) hold on the
//! wire. Floats are formatted with Rust's shortest-roundtrip `Display`,
//! itself deterministic.
//!
//! The per-name answer is the paper's core artifact: the name's
//! delegation closure, its TCB tally, the flattened min vertex cut and
//! the hijackable verdict, plus per-subject lint diagnostics with their
//! evidence chains (the name itself and every zone on its chain).

use crate::http::Response;
use crate::snapshot::WorldSnapshot;
use perils_core::closure::ClosureWorkspace;
use perils_core::hijack::min_cut_flattened_view;
use perils_core::lint::{Diagnostic, LintCtx, LintIndex, RuleRegistry};
use perils_core::tcb::TcbTally;
use perils_core::universe::{ServerId, Universe, ZoneId};
use perils_dns::name::DnsName;
use perils_survey::lint::{push_json_message, push_json_name, push_json_note};
use perils_util::json::push_json_string;

/// Cap on `GET /names?limit=`.
const MAX_NAME_LIST: usize = 1000;
/// Default for `GET /names`.
const DEFAULT_NAME_LIST: usize = 20;

/// Appends `"key":"<name>"` with the DNS name in presentation form.
fn push_name_field(out: &mut String, key: &str, name: &DnsName) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    push_json_name(out, name);
}

/// Serializes lint diagnostics (rule, severity, subject, message,
/// evidence chain) as a JSON array, resolving their ids and writing
/// their words through the `universe`, `facts` and `names` they were
/// computed over — the lint sinks' renderer.
fn push_diagnostics(
    out: &mut String,
    universe: &Universe,
    facts: &LintIndex,
    names: &[DnsName],
    diagnostics: &[Diagnostic],
) {
    out.push('[');
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        push_json_string(out, d.rule);
        out.push_str(",\"severity\":");
        push_json_string(out, d.severity.label());
        out.push_str(",\"subject\":{\"kind\":");
        push_json_string(out, d.subject.kind());
        out.push(',');
        push_name_field(out, "name", d.subject.name(universe, names));
        out.push_str("},\"message\":");
        push_json_message(out, d, universe, names);
        out.push_str(",\"evidence\":[");
        for (j, step) in d.evidence.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('{');
            push_name_field(out, "at", step.at.name(universe));
            out.push_str(",\"note\":");
            push_json_note(out, step, universe, facts);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');
}

/// Runs every registered rule over the given subject slices. Slices
/// must be ascending by id (the lint determinism contract); a name
/// subject indexes `names`.
fn lint_subjects(
    snap: &WorldSnapshot,
    rules: &RuleRegistry,
    zones: &[ZoneId],
    servers: &[ServerId],
    names: &[DnsName],
) -> Vec<Diagnostic> {
    let ctx = LintCtx {
        universe: &snap.universe,
        index: &snap.index,
        facts: &snap.lint,
        zones,
        servers,
        names,
    };
    let mut out = Vec::new();
    for rule in rules.iter() {
        out.extend(rule.check(&ctx));
    }
    out
}

/// `GET /name/<name>`: closure, TCB tally, min-cut, hijackable verdict
/// and lint diagnostics for one name.
pub fn name_response(
    snap: &WorldSnapshot,
    rules: &RuleRegistry,
    ws: &mut ClosureWorkspace,
    raw: &str,
) -> Response {
    let target = match DnsName::from_ascii(raw) {
        Ok(name) => name.to_lowercase(),
        Err(e) => return Response::error(400, &format!("bad name {raw:?}: {e:?}")),
    };
    let Some(zone) = snap.universe.zone_of(&target) else {
        return Response::error(404, &format!("name {target} is not covered by any zone"));
    };
    // Every name falls under the root when a root zone exists; a query
    // that resolves no deeper than the root is a miss, not an answer.
    if snap.universe.zone(zone).origin.is_root() && !target.is_root() {
        return Response::error(
            404,
            &format!("name {target} is not covered below the root zone"),
        );
    }
    let view = snap
        .index
        .closure_view_in(&snap.universe, &target, Some(zone), ws);
    let tally = TcbTally::compute(&snap.universe, &view);
    let cut = min_cut_flattened_view(&snap.universe, &snap.index, &view);
    let closure_servers = view.server_count();
    let closure_zones = view.zone_count();

    // Lint the name plus every zone on its delegation chain (ascending
    // by id, as the rule contract requires).
    let mut chain: Vec<ZoneId> = view.target_chain().to_vec();
    chain.sort_by_key(|z| z.index());
    let names = std::slice::from_ref(&target);
    let diagnostics = lint_subjects(snap, rules, &chain, &[], names);

    let mut body = String::with_capacity(1024);
    body.push_str(&format!("{{\"epoch\":{},", snap.epoch));
    push_name_field(&mut body, "name", &target);
    body.push(',');
    push_name_field(&mut body, "zone", &snap.universe.zone(zone).origin);
    body.push_str(&format!(
        ",\"closure\":{{\"zones\":{closure_zones},\"servers\":{closure_servers}}}"
    ));
    body.push_str(&format!(
        ",\"tcb\":{{\"size\":{},\"nameowner\":{},\"vulnerable\":{},\"scripted\":{},\"safety_percent\":{}}}",
        tally.tcb_size,
        tally.nameowner_administered,
        tally.vulnerable,
        tally.scripted_vulnerable,
        tally.safety_percent(),
    ));
    match &cut {
        Some(set) => {
            body.push_str(&format!(
                ",\"min_cut\":{{\"size\":{},\"safe_members\":{},\"servers\":[",
                set.size(),
                set.safe_members
            ));
            for (i, &sid) in set.servers.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                push_json_name(&mut body, &snap.universe.server(sid).name);
            }
            body.push_str("]}");
        }
        None => body.push_str(",\"min_cut\":null"),
    }
    let hijackable = cut
        .as_ref()
        .map(|set| set.size() > 0 && set.fully_vulnerable())
        .unwrap_or(false);
    body.push_str(&format!(",\"hijackable\":{hijackable},\"lint\":"));
    push_diagnostics(&mut body, &snap.universe, &snap.lint, names, &diagnostics);
    body.push('}');
    Response::json(200, body)
}

/// `GET /zone/<zone>`: delegation facts and lint diagnostics for one
/// zone (its own NS servers included as lint subjects).
pub fn zone_response(snap: &WorldSnapshot, rules: &RuleRegistry, raw: &str) -> Response {
    let origin = match DnsName::from_ascii(raw) {
        Ok(name) => name.to_lowercase(),
        Err(e) => return Response::error(400, &format!("bad zone {raw:?}: {e:?}")),
    };
    let Some(zone) = snap.universe.zone_id(&origin) else {
        return Response::error(404, &format!("zone {origin} is not in the universe"));
    };
    let entry = snap.universe.zone(zone);
    let parent = snap.universe.parent_zone_of(zone);

    let mut servers: Vec<ServerId> = entry.ns.clone();
    servers.sort_by_key(|s| s.index());
    servers.dedup();
    let diagnostics = lint_subjects(snap, rules, std::slice::from_ref(&zone), &servers, &[]);

    let mut body = String::with_capacity(512);
    body.push_str(&format!("{{\"epoch\":{},", snap.epoch));
    push_name_field(&mut body, "zone", &entry.origin);
    body.push_str(",\"parent\":");
    match parent {
        Some(p) => push_json_name(&mut body, &snap.universe.zone(p).origin),
        None => body.push_str("null"),
    }
    body.push_str(&format!(
        ",\"reachable\":{},\"ns\":[",
        snap.lint.zone_reachable(zone)
    ));
    for (i, &sid) in entry.ns.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let server = snap.universe.server(sid);
        body.push('{');
        push_name_field(&mut body, "name", &server.name);
        body.push_str(&format!(
            ",\"vulnerable\":{},\"scripted\":{},\"is_root\":{}}}",
            server.vulnerable, server.scripted_exploit, server.is_root
        ));
    }
    body.push_str("],\"lint\":");
    push_diagnostics(&mut body, &snap.universe, &snap.lint, &[], &diagnostics);
    body.push('}');
    Response::json(200, body)
}

/// `GET /names[?limit=K]`: the surveyed names, in survey order — how a
/// client (or the CI smoke) discovers queryable names in a synthetic
/// world.
pub fn names_response(snap: &WorldSnapshot, query: Option<&str>) -> Response {
    let mut limit = DEFAULT_NAME_LIST;
    if let Some(query) = query {
        for pair in query.split('&') {
            match pair.split_once('=') {
                Some(("limit", value)) => match value.parse::<usize>() {
                    Ok(n) => limit = n.min(MAX_NAME_LIST),
                    Err(_) => return Response::error(400, &format!("bad limit {value:?}")),
                },
                _ => return Response::error(400, &format!("unknown query parameter {pair:?}")),
            }
        }
    }
    let mut body = String::with_capacity(64 + 24 * limit);
    body.push_str(&format!(
        "{{\"epoch\":{},\"total\":{},\"names\":[",
        snap.epoch,
        snap.names.len()
    ));
    for (i, surveyed) in snap.names.iter().take(limit).enumerate() {
        if i > 0 {
            body.push(',');
        }
        push_json_name(&mut body, &surveyed.name);
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `GET /figures`: the cached sweep, or `404` when the daemon was
/// started with `--no-figures`.
pub fn figures_response(snap: &WorldSnapshot) -> Response {
    match &snap.figures_json {
        Some(json) => Response::json(200, json.clone()),
        None => Response::error(404, "figure sweep disabled (--no-figures)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_survey::WorldSpec;
    use perils_util::json::{parse, Value};

    fn fbi_snapshot() -> WorldSnapshot {
        WorldSnapshot::build(&WorldSpec::Fbi, 1, 2, false)
    }

    fn body_of(response: &Response) -> Value {
        assert_eq!(response.status, 200, "body: {}", response.body);
        parse(&response.body).expect("response is valid JSON")
    }

    #[test]
    fn name_answer_has_the_paper_artifact_shape() {
        let snap = fbi_snapshot();
        let rules = RuleRegistry::builtin();
        let mut ws = snap.index.workspace();
        let response = name_response(&snap, &rules, &mut ws, "www.fbi.gov");
        let value = body_of(&response);
        assert_eq!(
            value.get("name").and_then(|v| v.as_str()),
            Some("www.fbi.gov")
        );
        assert_eq!(value.get("epoch").and_then(|v| v.as_u64()), Some(1));
        let tcb = value.get("tcb").expect("tcb object");
        assert!(tcb.get("size").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
        assert!(matches!(value.get("hijackable"), Some(Value::Bool(_))));
        assert!(value.get("lint").and_then(|v| v.as_array()).is_some());
    }

    /// Labels may hold `"` and `\`; names are written into the body
    /// label by label, and must still read back as their `Display`.
    #[test]
    fn name_answer_escapes_quote_and_backslash_labels() {
        use perils_core::{DependencyIndex, LintIndex};
        use perils_dns::name::name;
        use perils_survey::snapshot::{load_world_bytes, world_archive_bytes};
        let host = name("ns\"q\\x.quote.com");
        let roots = [name("a.root-servers.net"), name("b.root-servers.net")];
        let mut b = Universe::builder();
        for root in &roots {
            b.raw_server(root, false, true);
        }
        b.add_zone(&DnsName::root(), &roots);
        b.add_zone(&name("com"), &roots);
        b.add_zone(&name("quote.com"), std::slice::from_ref(&host));
        let universe = b.finish();
        let bytes = world_archive_bytes(
            &universe,
            &DependencyIndex::build(&universe),
            &LintIndex::build(&universe),
            &[],
            &[],
            None,
        );
        let mut snap = fbi_snapshot();
        snap.world = load_world_bytes(bytes).expect("the archive loads");

        let rules = RuleRegistry::builtin();
        let mut ws = snap.index.workspace();
        let value = body_of(&name_response(&snap, &rules, &mut ws, "www.quote.com"));
        let shown = Value::String(host.to_string());
        let cut = value.get("min_cut").and_then(|c| c.get("servers"));
        assert_eq!(
            cut.and_then(Value::as_array),
            Some(std::slice::from_ref(&shown))
        );
        let lint = value.get("lint").and_then(Value::as_array).expect("lint");
        let single = lint
            .iter()
            .find(|d| d.get("rule").and_then(Value::as_str) == Some("single-server"))
            .expect("single-server finding");
        let evidence = single.get("evidence").and_then(Value::as_array).unwrap();
        assert_eq!(evidence[0].get("at"), Some(&shown));
    }

    #[test]
    fn name_errors_are_typed() {
        let snap = fbi_snapshot();
        let rules = RuleRegistry::builtin();
        let mut ws = snap.index.workspace();
        assert_eq!(
            name_response(&snap, &rules, &mut ws, "no..dots").status,
            400
        );
        assert_eq!(
            name_response(&snap, &rules, &mut ws, "www.unknown.example").status,
            404
        );
    }

    #[test]
    fn zone_answer_lists_ns_and_diagnostics() {
        let snap = fbi_snapshot();
        let rules = RuleRegistry::builtin();
        let response = zone_response(&snap, &rules, "fbi.gov");
        let value = body_of(&response);
        let ns = value
            .get("ns")
            .and_then(|v| v.as_array())
            .expect("ns array");
        assert!(!ns.is_empty());
        assert!(value.get("parent").and_then(|v| v.as_str()).is_some());
    }

    #[test]
    fn names_limit_is_applied_and_validated() {
        let snap = fbi_snapshot();
        let value = body_of(&names_response(&snap, Some("limit=1")));
        assert_eq!(
            value
                .get("names")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(1)
        );
        assert!(value.get("total").and_then(|v| v.as_u64()).unwrap_or(0) >= 3);
        assert_eq!(names_response(&snap, Some("limit=x")).status, 400);
        assert_eq!(names_response(&snap, Some("frobnicate=1")).status, 400);
    }
}
