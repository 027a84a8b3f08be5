//! The NDJSON wire protocol.
//!
//! One JSON object per line, both directions, over plain TCP. Requests
//! carry a `"verb"` and an optional client-chosen `"id"` echoed back
//! verbatim in the response; responses are `{"id", "ok": true, ...}`
//! or `{"id", "ok": false, "error": "..."}`. Subscribed telemetry
//! events arrive interleaved as `{"event": "telemetry", ...}` lines
//! (no `id` — they are pushed, not answered).
//!
//! The grammar is strict: unknown verbs and malformed JSON produce an
//! error response naming the offender, never a dropped connection.
//! Response key order is deterministic (the vendored JSON writer keeps
//! object insertion order), so golden-line tests can pin exact bytes.

use crate::scenario::{AttackSpec, ScenarioConfig};
use ddpm_telemetry::PacketEvent;
use serde_json::{json, FromJson, Value};
use std::fmt::Write as _;

/// A parsed client request: the verb plus its arguments.
#[derive(Debug)]
pub enum Request {
    /// `tenant.create {name, scenario, autorun?, telemetry?}` — build a
    /// tenant world from an inline scenario config object.
    Create {
        /// Unique tenant name.
        name: String,
        /// The parsed inline scenario config.
        config: Box<ScenarioConfig>,
        /// The scenario config as canonical JSON text (the tenant's
        /// checkpoint fingerprint source).
        source: String,
        /// Advance the tenant continuously on the worker pool (default
        /// true); `false` makes progress only via explicit
        /// `tenant.step` calls.
        autorun: bool,
        /// Buffer telemetry events for `tenant.subscribe` (default
        /// false).
        telemetry: bool,
    },
    /// `tenant.inject {tenant, attack}` — schedule an extra attack
    /// mid-flight.
    Inject {
        /// Target tenant.
        tenant: String,
        /// The attack block, same grammar as a scenario's `"attack"`.
        attack: AttackSpec,
    },
    /// `tenant.step {tenant, cycles?}` — advance a paused (or any)
    /// tenant synchronously by one bounded stride.
    Step {
        /// Target tenant.
        tenant: String,
        /// Stride bound in cycles (default: the server's stride).
        cycles: Option<u64>,
    },
    /// `tenant.identify {tenant, victim?}` — online attribution from
    /// the delivered stream so far.
    Identify {
        /// Target tenant.
        tenant: String,
        /// Victim override (default: the scenario's attack victim).
        victim: Option<u32>,
    },
    /// `tenant.stats {tenant}` — live counters: cycle, delivered,
    /// dropped, done.
    Stats {
        /// Target tenant.
        tenant: String,
    },
    /// `tenant.snapshot {tenant}` — checkpoint the tenant to its
    /// checkpoint directory now.
    Snapshot {
        /// Target tenant.
        tenant: String,
    },
    /// `tenant.subscribe {tenant}` — drain the tenant's buffered
    /// telemetry events (requires `telemetry: true` at create).
    Subscribe {
        /// Target tenant.
        tenant: String,
    },
    /// `tenant.outcome {tenant}` — the final text/json/digest summary;
    /// an error until the tenant is done.
    Outcome {
        /// Target tenant.
        tenant: String,
    },
    /// `tenant.destroy {tenant}` — remove the tenant (and its
    /// checkpoints).
    Destroy {
        /// Target tenant.
        tenant: String,
    },
    /// `server.info` — tenant census and server configuration.
    Info,
    /// `server.drain` — checkpoint every live tenant and refuse new
    /// work (what SIGINT triggers in the `serve` binary).
    Drain,
}

/// A parsed request line: the request plus the echoed client id.
#[derive(Debug)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<Value>,
    /// The request proper.
    pub req: Request,
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::String(s)) if !s.is_empty() => Ok(s.clone()),
        Some(Value::String(_)) => Err(format!("`{key}` must be non-empty")),
        Some(_) => Err(format!("`{key}` must be a string")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn bool_field(v: &Value, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

fn opt_u64_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

/// Parses one request line.
///
/// # Errors
/// A human-readable message naming the malformed construct; the server
/// wraps it in an `ok: false` response rather than closing the
/// connection.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let v: Value =
        serde_json::from_str(line).map_err(|e| format!("malformed request JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("request must be a JSON object".into());
    }
    let id = v.get("id").cloned();
    let verb = str_field(&v, "verb")?;
    let req = match verb.as_str() {
        "tenant.create" => {
            let name = str_field(&v, "name")?;
            let sc = v
                .get("scenario")
                .ok_or_else(|| "missing field `scenario`".to_string())?;
            let config = ScenarioConfig::from_json(sc)
                .map_err(|e| format!("invalid scenario config: {e}"))?;
            // Canonical text of the config object, not the raw line:
            // the fingerprint must be stable across whitespace
            // variation in what clients send.
            let source = sc.to_string();
            Request::Create {
                name,
                config: Box::new(config),
                source,
                autorun: bool_field(&v, "autorun", true)?,
                telemetry: bool_field(&v, "telemetry", false)?,
            }
        }
        "tenant.inject" => {
            let tenant = str_field(&v, "tenant")?;
            let spec = v
                .get("attack")
                .ok_or_else(|| "missing field `attack`".to_string())?;
            let attack =
                AttackSpec::from_json(spec).map_err(|e| format!("invalid attack block: {e}"))?;
            Request::Inject { tenant, attack }
        }
        "tenant.step" => Request::Step {
            tenant: str_field(&v, "tenant")?,
            cycles: opt_u64_field(&v, "cycles")?,
        },
        "tenant.identify" => {
            let victim = match opt_u64_field(&v, "victim")? {
                None => None,
                Some(n) => Some(
                    u32::try_from(n).map_err(|_| "`victim` does not fit in u32".to_string())?,
                ),
            };
            Request::Identify {
                tenant: str_field(&v, "tenant")?,
                victim,
            }
        }
        "tenant.stats" => Request::Stats {
            tenant: str_field(&v, "tenant")?,
        },
        "tenant.snapshot" => Request::Snapshot {
            tenant: str_field(&v, "tenant")?,
        },
        "tenant.subscribe" => Request::Subscribe {
            tenant: str_field(&v, "tenant")?,
        },
        "tenant.outcome" => Request::Outcome {
            tenant: str_field(&v, "tenant")?,
        },
        "tenant.destroy" => Request::Destroy {
            tenant: str_field(&v, "tenant")?,
        },
        "server.info" => Request::Info,
        "server.drain" => Request::Drain,
        other => {
            return Err(format!(
                "unknown verb `{other}` (accepted: tenant.create, tenant.inject, \
                 tenant.step, tenant.identify, tenant.stats, tenant.snapshot, \
                 tenant.subscribe, tenant.outcome, tenant.destroy, server.info, \
                 server.drain)"
            ))
        }
    };
    Ok(Envelope { id, req })
}

/// Builds a success response line (no trailing newline): `{"id": ...,
/// "ok": true, ...body}` with deterministic key order.
#[must_use]
pub fn ok_response(id: Option<&Value>, body: &Value) -> String {
    let mut out = serde_json::Map::new();
    out.insert("id".into(), id.cloned().unwrap_or(Value::Null));
    out.insert("ok".into(), json!(true));
    if let Some(src) = body.as_object() {
        for (k, val) in src.iter() {
            out.insert(k.clone(), val.clone());
        }
    }
    Value::Object(out).to_string()
}

/// Builds the success response line of `tenant.subscribe` (no
/// trailing newline): `{"id": ..., "ok": true, "events": [...],
/// "dropped": n}`. Each event's NDJSON line goes in as it is; it is
/// already the JSON object [`ok_response`] would render for it, keys in
/// the same order, so the bytes equal a response built from values.
#[must_use]
pub fn events_response(id: Option<&Value>, events: &[PacketEvent], dropped: u64) -> String {
    let id = id.cloned().unwrap_or(Value::Null).to_string();
    let mut out = String::with_capacity(64 + 96 * events.len());
    write!(out, "{{\"id\":{id},\"ok\":true,\"events\":[").expect("writing to a String");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        e.write_ndjson(&mut out).expect("writing to a String");
    }
    write!(out, "],\"dropped\":{dropped}}}").expect("writing to a String");
    out
}

/// Builds an error response line (no trailing newline): `{"id": ...,
/// "ok": false, "error": "..."}`.
#[must_use]
pub fn err_response(id: Option<&Value>, error: &str) -> String {
    json!({
        "id": id.cloned().unwrap_or(Value::Null),
        "ok": false,
        "error": error,
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage_and_unknown_verbs() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        let e = parse_request(r#"{"verb": "tenant.freeze", "tenant": "t"}"#).unwrap_err();
        assert!(e.contains("unknown verb `tenant.freeze`"), "{e}");
        let e = parse_request(r#"{"tenant": "t"}"#).unwrap_err();
        assert!(e.contains("`verb`"), "{e}");
    }

    #[test]
    fn parse_create_applies_defaults() {
        let env = parse_request(
            r#"{"id": 7, "verb": "tenant.create", "name": "a", "scenario": {
                "topology": {"kind": "torus", "dims": [4, 4]},
                "router": "fully_adaptive", "scheme": "ddpm"}}"#,
        )
        .expect("parses");
        assert_eq!(env.id, Some(json!(7)));
        match env.req {
            Request::Create {
                name,
                autorun,
                telemetry,
                ..
            } => {
                assert_eq!(name, "a");
                assert!(autorun);
                assert!(!telemetry);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn responses_have_pinned_shape() {
        assert_eq!(
            ok_response(Some(&json!(3)), &json!({"cycle": 12})),
            r#"{"id":3,"ok":true,"cycle":12}"#
        );
        assert_eq!(
            ok_response(None, &json!({})),
            r#"{"id":null,"ok":true}"#
        );
        assert_eq!(
            err_response(Some(&json!("q-1")), "no such tenant"),
            r#"{"id":"q-1","ok":false,"error":"no such tenant"}"#
        );
    }
}
