//! A minimal blocking client for the NDJSON wire protocol.
//!
//! One request in flight at a time: [`ServeClient::call`] writes a
//! line and reads the response line. The bench driver and the smoke
//! tests both script sessions through this.

use serde_json::{json, Map, Value};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

/// A connected client. Requests are numbered automatically (`"id": 1,
/// 2, ...`) and the response id is checked against the request's.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl ServeClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:4650"`), with `TCP_NODELAY`
    /// set so each request line leaves as soon as it is written.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning stream: {e}"))?;
        Ok(Self {
            reader: BufReader::new(reader),
            writer: stream,
            next_id: 1,
        })
    }

    /// Sends one request (`verb` plus `args` object entries) and waits
    /// for its response. Returns the response body on `ok: true`.
    ///
    /// # Errors
    /// Transport failures, protocol violations (non-JSON reply, id
    /// mismatch), or the server's `error` string on `ok: false`.
    pub fn call(&mut self, verb: &str, args: &Value) -> Result<Value, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut req = Map::new();
        req.insert("id".into(), json!(id));
        req.insert("verb".into(), json!(verb));
        if let Some(obj) = args.as_object() {
            for (k, v) in obj.iter() {
                req.insert(k.clone(), v.clone());
            }
        }
        crate::server::send_line(&mut self.writer, Value::Object(req).to_string())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let v: Value = serde_json::from_str(resp.trim_end())
            .map_err(|e| format!("malformed response: {e}"))?;
        if v["id"].as_u64() != Some(id) {
            return Err(format!(
                "response id mismatch (sent {id}, got {})",
                v["id"]
            ));
        }
        if v["ok"].as_bool() == Some(true) {
            Ok(v)
        } else {
            Err(v["error"]
                .as_str()
                .unwrap_or("unspecified server error")
                .to_owned())
        }
    }

    /// Convenience: a verb addressed at one tenant with no other args.
    ///
    /// # Errors
    /// As [`Self::call`].
    pub fn tenant_call(&mut self, verb: &str, tenant: &str) -> Result<Value, String> {
        self.call(verb, &json!({"tenant": tenant}))
    }

    /// Polls `tenant.stats` until the tenant reports `done` (sleeping
    /// `poll_ms` between polls, bounded by `max_polls`).
    ///
    /// # Errors
    /// Transport failures, or the bound expiring first.
    pub fn wait_done(
        &mut self,
        tenant: &str,
        poll_ms: u64,
        max_polls: u32,
    ) -> Result<(), String> {
        for _ in 0..max_polls {
            let stats = self.tenant_call("tenant.stats", tenant)?;
            if stats["done"].as_bool() == Some(true) {
                return Ok(());
            }
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        }
        Err(format!(
            "tenant `{tenant}` not done after {max_polls} polls"
        ))
    }
}
