//! The two daemon legs. Load is a closed loop: one client thread, one
//! connection, a daemon child with one worker — a build system waits for
//! each reply, and no more threads are runnable than the box has cores.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use crate::api::{self, Conn, DaemonFiles, Json, Req};
use crate::irtext::{body_swap, toggle_sites};
use crate::procfs;
use crate::tally::Tally;
use crate::workload::{corpus_module, ReadPlan, Rng, WritePlan};

/// `k` of every query the workloads send.
pub const QUERY_K: usize = 5;

/// Body of the `daemon [--snapshot <file>] [--metrics <file>]` subcommand
/// both binaries carry: serve on an ephemeral port, announcing the address
/// as the first line of stdout.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let mut files = DaemonFiles::default();
    for pair in args.chunks(2) {
        match pair {
            [flag, path] if flag == "--snapshot" => files.snapshot = Some(PathBuf::from(path)),
            [flag, path] if flag == "--metrics" => files.metrics = Some(PathBuf::from(path)),
            other => return Err(format!("daemon: unexpected arguments {other:?}")),
        }
    }
    api::serve_until_shutdown(files, |addr| println!("{addr}"))
}

/// A daemon child process and the one connection to it.
pub struct Daemon {
    child: Child,
    conn: Conn,
}

impl Daemon {
    /// Spawns `exe daemon` (restoring from `snapshot` when the file
    /// exists) and returns it with the seconds from spawn to first `pong`.
    pub fn start(exe: &Path, snapshot: Option<&Path>) -> Result<(Daemon, f64), String> {
        let files = DaemonFiles {
            snapshot: snapshot.map(Path::to_path_buf),
            metrics: None,
        };
        Daemon::start_with(exe, &files)
    }

    pub fn start_with(exe: &Path, files: &DaemonFiles) -> Result<(Daemon, f64), String> {
        let mut cmd = Command::new(exe);
        cmd.arg("daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (flag, path) in [
            ("--snapshot", &files.snapshot),
            ("--metrics", &files.metrics),
        ] {
            if let Some(path) = path {
                cmd.arg(flag).arg(path);
            }
        }
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let connected = BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon address: {e}"))
            .and_then(|_| {
                line.trim()
                    .parse()
                    .map_err(|e| format!("daemon address `{line}`: {e}"))
            })
            .and_then(Conn::connect);
        // From here on the child is owned by a `Daemon`, whose drop reaps it.
        let mut daemon = match connected {
            Ok(conn) => Daemon { child, conn },
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let reply = daemon.request(&api::render(&Req::Ping))?.0;
        expect_type(&api::parse(&reply)?, "pong")?;
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request: the reply's bytes and the seconds from first byte
    /// sent to last byte received. Rendering and parsing stay outside.
    pub fn request(&mut self, payload: &[u8]) -> Result<(Vec<u8>, f64), String> {
        let t = Instant::now();
        self.conn.send(payload)?;
        let reply = self.conn.recv()?;
        Ok((reply, t.elapsed().as_secs_f64()))
    }

    /// Sends without waiting, for the pipelined layer probe.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), String> {
        self.conn.send(payload)
    }

    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        self.conn.recv()
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        procfs::peak_rss_mb(&self.pid().to_string())
    }

    /// Graceful stop: `shutdown` must answer `bye` and the process must
    /// exit with status 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.request(&api::render(&Req::Shutdown))?.0;
        expect_type(&api::parse(&reply)?, "bye")?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    /// Restart-only cycles and error paths end here: the child is killed
    /// and reaped (both are no-ops after a graceful shutdown).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn expect_type(v: &Json, want: &str) -> Result<(), String> {
    match v.get("type").and_then(Json::as_str) {
        Some(t) if t == want => Ok(()),
        other => Err(format!(
            "expected a `{want}` response, got {other:?} ({:?})",
            v.get("message").and_then(Json::as_str)
        )),
    }
}

/// Sends `req`, checks the reply's type, and returns the parsed reply
/// with the request latency in seconds. Failures are tallied.
fn call(d: &mut Daemon, req: &Req, want: &str, tally: &mut Tally) -> Option<(Json, f64)> {
    let payload = api::render(req);
    let (reply, secs) = tally.ok(d.request(&payload))?;
    let parsed = api::parse(&reply).and_then(|v| expect_type(&v, want).map(|()| v));
    tally.ok(parsed).map(|v| (v, secs))
}

fn ingest(d: &mut Daemon, name: &str, ir: &str, tally: &mut Tally) -> Option<(u64, f64)> {
    let (v, secs) = call(d, &Req::Ingest { name, ir }, "ingested", tally)?;
    let functions = v.get("functions").and_then(Json::as_u64);
    tally.check(functions.is_some_and(|n| n > 0), || {
        format!("ingest {name}: {functions:?} functions")
    });
    Some((functions?, secs))
}

/// A scratch directory under `target/ledger/` for snapshots, removed on
/// drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let dir = PathBuf::from(format!("target/ledger/tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Default)]
pub struct ReadOutcome {
    pub setup_s: f64,
    pub restart_s: Vec<f64>,
    /// Every cold module-wide query of every cold cycle.
    pub query_cold_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub tally: Tally,
}

/// The read leg, one daemon lifetime at a time so that the caller can
/// deal them out over the whole run. `Err` anywhere means the harness itself
/// could not run (no daemon, no scratch directory); product misbehaviour
/// is tallied.
pub struct ReadLeg<'a> {
    exe: &'a Path,
    plan: ReadPlan,
    /// Owns the snapshot's directory.
    _scratch: Scratch,
    snapshot: PathBuf,
    names: Vec<String>,
    queries: Vec<Vec<u8>>,
    /// The bytes module i was first answered with; every later answer,
    /// cold or warm, in any daemon process, must equal them.
    first: Vec<Option<Vec<u8>>>,
    /// The module the next cold cycle starts its queries at.
    next_cold: usize,
    rng: Rng,
    out: ReadOutcome,
}

/// Requests in one warm sweep. Warm sweeps are part of the oracle and of
/// the daemon's resident set, not timed: a memo hit is a millisecond of
/// rendering, too short a region to repeat on this box, and its latency is
/// the per-layer `serve.query_module_warm_ms`.
const WARM_REQUESTS: usize = 12;

impl<'a> ReadLeg<'a> {
    /// Set-up: ingests the corpus into a daemon whose shutdown saves the
    /// snapshot every later daemon restores from.
    pub fn start(exe: &'a Path, plan: ReadPlan, seed: u64) -> Result<ReadLeg<'a>, String> {
        let t0 = Instant::now();
        let mut out = ReadOutcome::default();
        let scratch = Scratch::new("read")?;
        let snapshot = scratch.file("corpus.f3msnap");
        let (mut d, _) = Daemon::start(exe, Some(&snapshot))?;
        let mut names = Vec::new();
        for i in 0..plan.modules {
            let (name, text) = corpus_module(i, plan.functions);
            ingest(&mut d, &name, &text, &mut out.tally);
            names.push(name);
        }
        out.tally.ok(d.shutdown());
        out.tally
            .check(snapshot.exists(), || "shutdown left no snapshot".into());
        let queries = names
            .iter()
            .map(|m| {
                api::render(&Req::QueryModule {
                    module: m,
                    k: QUERY_K,
                })
            })
            .collect();
        out.setup_s = t0.elapsed().as_secs_f64();
        let first = vec![None; names.len()];
        Ok(ReadLeg {
            exe,
            plan,
            _scratch: scratch,
            snapshot,
            names,
            queries,
            first,
            next_cold: 0,
            rng: Rng::new(seed, 2),
            out,
        })
    }

    /// Fresh daemon → first `pong` → cold queries of the next
    /// `cold_per_cycle` modules → warm sweeps over those modules →
    /// `shutdown`.
    pub fn cold_cycle(&mut self) -> Result<(), String> {
        let out = &mut self.out;
        let (mut d, restart) = Daemon::start(self.exe, Some(&self.snapshot))?;
        out.restart_s.push(restart);
        // Cold queries go round the modules in the same order on every
        // seed: the daemon's peak resident set depends on the order its
        // memo fills in.
        let window: Vec<usize> = (0..self.plan.cold_per_cycle)
            .map(|j| (self.next_cold + j) % self.names.len())
            .collect();
        self.next_cold = (self.next_cold + window.len()) % self.names.len();
        for &i in &window {
            let Some((reply, secs)) = out.tally.ok(d.request(&self.queries[i])) else {
                continue;
            };
            out.query_cold_ms.push(secs * 1e3);
            out.tally
                .ok(api::parse(&reply).and_then(|v| expect_type(&v, "candidates")));
            let same = *self.first[i].get_or_insert_with(|| reply.clone()) == reply;
            out.tally.check(same, || {
                format!("{}: cold answer differs from the first", self.names[i])
            });
        }
        let mut order: Vec<usize> = window.iter().copied().cycle().take(WARM_REQUESTS).collect();
        for _ in 0..self.plan.warm_sweeps {
            self.rng.shuffle(&mut order);
            for &i in &order {
                let Some((reply, _)) = out.tally.ok(d.request(&self.queries[i])) else {
                    continue;
                };
                let same = self.first[i].as_ref() == Some(&reply);
                out.tally.check(same, || {
                    format!("{}: warm answer differs from the first", self.names[i])
                });
            }
        }
        out.peak_rss_mb = out.peak_rss_mb.max(d.peak_rss_mb()?);
        out.tally.ok(d.shutdown());
        Ok(())
    }

    /// Fresh daemon → first `pong`, then the process is killed and reaped.
    pub fn restart_cycle(&mut self) -> Result<(), String> {
        let (_daemon, restart) = Daemon::start(self.exe, Some(&self.snapshot))?;
        self.out.restart_s.push(restart);
        Ok(())
    }

    pub fn setup_s(&self) -> f64 {
        self.out.setup_s
    }

    pub fn finish(self) -> ReadOutcome {
        self.out
    }
}

#[derive(Default)]
pub struct WriteOutcome {
    pub setup_s: f64,
    pub update_ms: Vec<f64>,
    pub requery_ms: Vec<f64>,
    /// Functions per second of each re-`ingest` request.
    pub ingest_fn_per_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub tally: Tally,
}

/// One module-wide query per module; the `results` array of each answer.
fn sweep(d: &mut Daemon, names: &[String], tally: &mut Tally) -> (f64, Vec<Option<Json>>) {
    let queries: Vec<Vec<u8>> = names
        .iter()
        .map(|m| {
            api::render(&Req::QueryModule {
                module: m,
                k: QUERY_K,
            })
        })
        .collect();
    let t = Instant::now();
    let replies: Vec<_> = queries.iter().map(|q| d.request(q)).collect();
    let secs = t.elapsed().as_secs_f64();
    let results = replies
        .into_iter()
        .map(|r| {
            let (reply, _) = tally.ok(r)?;
            let v = tally
                .ok(api::parse(&reply).and_then(|v| expect_type(&v, "candidates").map(|()| v)))?;
            v.get("results").cloned()
        })
        .collect();
    (secs, results)
}

/// Which of the edited module's `toggle_sites` the write leg edits: a draw, fixed once. Requeries after an edit
/// there recompute about a quarter of the corpus, the middle of what the
/// first twenty sites cost (90 ms to 800 ms on the 6 × 600 corpus).
const EDIT_SITE: usize = 16;

/// The function the run edits and the two siblings whose bodies it is
/// given in turn — so every edit is valid, a real change, and costs what
/// the one before it cost. Editing a different function every time was
/// the first design: what an edit costs (its invalidated neighbourhood)
/// varies eight-fold between functions, so those samples had no common
/// floor and their median moved with which edits a slow spell hit.
pub fn edit_site(text: &str) -> Option<(String, [String; 2])> {
    let sites = toggle_sites(text);
    let at = EDIT_SITE % sites.len().max(1);
    sites.into_iter().nth(at).map(|(dst, a, b)| (dst, [a, b]))
}

/// The write leg, one iteration at a time so that the caller can deal
/// them out over the whole run; its daemon lives from `start` to `finish`.
pub struct WriteLeg<'a> {
    exe: &'a Path,
    plan: WritePlan,
    daemon: Daemon,
    names: Vec<String>,
    /// The harness's own copy of every module's current source.
    texts: Vec<String>,
    /// The function of module 0 every `update` edits, and its two sources.
    site: (String, [String; 2]),
    /// Modules in the order of their latest ingest.
    ingest_order: Vec<usize>,
    /// The `results` arrays of the latest sweep.
    latest: Vec<Option<Json>>,
    iterations_done: usize,
    out: WriteOutcome,
}

impl<'a> WriteLeg<'a> {
    /// Set-up: generation, the daemon's start, the initial ingests, and a
    /// sweep that fills the memo so that updates meet a warm corpus.
    pub fn start(exe: &'a Path, plan: WritePlan) -> Result<WriteLeg<'a>, String> {
        let t0 = Instant::now();
        let (names, texts): (Vec<String>, Vec<String>) = (0..plan.modules)
            .map(|i| corpus_module(i, plan.functions))
            .unzip();
        let site = edit_site(&texts[0]).ok_or("module 0 has no function to edit")?;
        let (mut daemon, _) = Daemon::start(exe, None)?;
        let mut out = WriteOutcome::default();
        for (name, text) in names.iter().zip(&texts) {
            ingest(&mut daemon, name, text, &mut out.tally);
        }
        sweep(&mut daemon, &names, &mut out.tally);
        out.setup_s = t0.elapsed().as_secs_f64();
        let ingest_order = (0..names.len()).collect();
        Ok(WriteLeg {
            exe,
            plan,
            daemon,
            names,
            texts,
            site,
            ingest_order,
            latest: Vec::new(),
            iterations_done: 0,
            out,
        })
    }

    pub fn setup_s(&self) -> f64 {
        self.out.setup_s
    }

    /// `update` the function → sweep; after every `evict_every`th
    /// iteration also `evict` + re-`ingest` (timed) one module and re-warm.
    pub fn iteration(&mut self) {
        let (dst, sources) = &self.site;
        let src = &sources[self.iterations_done % 2];
        self.iterations_done += 1;
        let out = &mut self.out;
        let patched =
            body_swap(&self.texts[0], dst, src).expect("the site's three bodies all differ");
        let req = Req::Update {
            module: &self.names[0],
            func: dst,
            ir: &patched,
        };
        if let Some((v, secs)) = call(&mut self.daemon, &req, "updated", &mut out.tally) {
            out.update_ms.push(secs * 1e3);
            let changed = v.get("changed").and_then(Json::as_bool);
            out.tally.check(changed == Some(true), || {
                format!("update {dst} <- {src}: changed = {changed:?}")
            });
            self.texts[0] = patched;
        }
        let (secs, results) = sweep(&mut self.daemon, &self.names, &mut out.tally);
        out.requery_ms.push(secs * 1e3);
        self.latest = results;

        if self.iterations_done.is_multiple_of(self.plan.evict_every) {
            // Always the last module (module 0 is the edited one), so that
            // every ingest sample repeats the same work.
            let ei = self.names.len() - 1;
            let name = &self.names[ei];
            call(
                &mut self.daemon,
                &Req::Evict { name },
                "evicted",
                &mut out.tally,
            );
            if let Some((functions, secs)) =
                ingest(&mut self.daemon, name, &self.texts[ei], &mut out.tally)
            {
                out.ingest_fn_per_s.push(functions as f64 / secs);
            }
            self.ingest_order.retain(|&i| i != ei);
            self.ingest_order.push(ei);
            // re-warm, untimed
            self.latest = sweep(&mut self.daemon, &self.names, &mut out.tally).1;
        }
    }

    /// Ends a leg that was only set up: its daemon is killed and reaped,
    /// what its set-up checked is returned.
    pub fn abandon(self) -> Tally {
        self.out.tally
    }

    /// Stops the daemon and checks its final answers against a reference:
    /// a fresh daemon that only ever saw the harness's copy of the final
    /// sources must rank exactly as the edited one does. It ingests in the
    /// order of each module's latest ingest: the index keeps the lowest
    /// entry ids of an over-full bucket and ids follow ingest order, so
    /// that order is part of the corpus state.
    pub fn finish(self) -> Result<WriteOutcome, String> {
        let WriteLeg {
            exe,
            daemon,
            names,
            texts,
            ingest_order,
            latest,
            mut out,
            ..
        } = self;
        out.peak_rss_mb = daemon.peak_rss_mb()?;
        out.tally.ok(daemon.shutdown());

        let (mut fresh, _) = Daemon::start(exe, None)?;
        for &i in &ingest_order {
            ingest(&mut fresh, &names[i], &texts[i], &mut out.tally);
        }
        let expected = sweep(&mut fresh, &names, &mut out.tally).1;
        out.tally.ok(fresh.shutdown());
        for ((name, got), want) in names.iter().zip(&latest).zip(&expected) {
            out.tally.check(got.is_some() && got == want, || {
                format!("{name}: edited daemon's results differ from a fresh daemon's on the final sources")
            });
        }
        out.tally
            .check(latest.len() == names.len(), || "no sweep ran".into());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A module of `families` families of three same-signature functions
    /// whose bodies all differ.
    fn module(families: usize) -> String {
        let mut text = String::from("module \"m\" {\n");
        for fam in 0..families {
            for member in 0..3 {
                text.push_str(&format!(
                    "define internal @f{fam}_{member}(i64 %0) -> i64 {{\nbb0:\n  %1 = add i64 %0, {}\n  ret i64 %1\n}}\n\n",
                    fam * 10 + member
                ));
            }
        }
        text.push_str("}\n");
        text
    }

    #[test]
    fn the_edit_site_can_be_switched_for_ever_and_every_switch_is_a_change() {
        let mut text = module(4);
        let (dst, sources) = edit_site(&text).expect("four families of three");
        assert_eq!(edit_site(&text), Some((dst.clone(), sources.clone())));
        assert!(!sources.contains(&dst) && sources[0] != sources[1]);
        for i in 0..6 {
            text = body_swap(&text, &dst, &sources[i % 2]).expect("a valid, real change");
        }
        // a family of two has no second source
        assert_eq!(edit_site(&module(1).replace("@f0_2", "@g0_2")), None);
    }
}
