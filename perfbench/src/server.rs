//! The server under test: `questpro serve` in its own process, with its
//! shipped defaults apart from an ephemeral port and a preloaded store.

use std::collections::HashMap;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::{Conn, Request};

/// A running server process. Dropping it kills the process and waits
/// for it, so no run leaves one behind.
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `bin serve --port 0 [extra...]`, its standard error going
    /// to `log`, and waits until it prints its address (it does so once
    /// every `--store` world is loaded).
    pub fn spawn(bin: &Path, extra: &[String], log: &Path) -> Result<Server, String> {
        let err_file = fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["serve", "--port", "0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err_file)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = fs::read_to_string(log).unwrap_or_default();
            // The address counts once its line is complete.
            if let Some((addr, _)) = text
                .split("listening on http://")
                .nth(1)
                .and_then(|r| r.split_once('\n'))
            {
                let addr = addr.trim();
                server.addr = addr
                    .parse()
                    .map_err(|_| format!("bad address line {addr:?}"))?;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "server exited with {status} before listening: {text}"
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("server not listening after 60 s: {text}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Opens a keep-alive connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The process's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = PathBuf::from(format!("/proc/{}/status", self.child.id()));
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// Scrapes `GET /metrics` into `series{labels} -> value`.
    pub fn metrics(&self) -> Result<Metrics, String> {
        let mut c = self.connect()?;
        let resp = c
            .call(&Request::new(0, "GET", "/metrics", ""))
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics: status {}", resp.status));
        }
        Ok(Metrics::parse(resp.text()))
    }

    /// Asks the server to stop and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut c) = self.connect() {
            let _ = c.call(&Request::new(0, "POST", "/shutdown", ""));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server did not exit within 20 s of POST /shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One `/metrics` scrape.
#[derive(Default, Clone)]
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    /// Parses the Prometheus text exposition.
    pub fn parse(text: &str) -> Metrics {
        let mut m = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            if let Some((k, v)) = line.rsplit_once(' ') {
                if let Ok(v) = v.parse::<f64>() {
                    m.insert(k.to_string(), v);
                }
            }
        }
        Metrics(m)
    }

    /// A series' value, 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// The sum over every series of the family `name` (all labels).
    pub fn family_sum(&self, name: &str) -> f64 {
        let braced = format!("{name}{{");
        self.0
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&braced))
            .map(|(_, v)| v)
            .sum()
    }

    /// `after - before` for every series.
    pub fn delta(before: &Metrics, after: &Metrics) -> Metrics {
        Metrics(
            after
                .0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_and_sums_families() {
        let m = Metrics::parse(
            "# HELP x y\nquestpro_a_total 3\nquestpro_h_sum{route=\"POST /eval\"} 10\n\
             questpro_h_sum{route=\"GET /x\"} 5\nquestpro_h_count{route=\"GET /x\"} 2\n",
        );
        assert_eq!(m.get("questpro_a_total"), 3.0);
        assert_eq!(m.get("questpro_h_sum{route=\"POST /eval\"}"), 10.0);
        assert_eq!(m.family_sum("questpro_h_sum"), 15.0);
        let later = Metrics::parse("questpro_a_total 7\n");
        assert_eq!(Metrics::delta(&m, &later).get("questpro_a_total"), 4.0);
    }
}
