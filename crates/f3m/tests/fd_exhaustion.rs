//! A daemon that runs out of file descriptors. Under `ulimit -n 32`, idle
//! clients fill the daemon's descriptor table and the rest wait in the
//! listen backlog, where `accept` fails with `EMFILE`. The daemon must
//! neither spin on a listener it cannot accept from nor stop accepting
//! once the clients leave. Linux only: the test drives the `f3m` binary
//! through `sh -c 'ulimit -n 32; exec f3m serve …'`.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use f3m_serve::client::Client;
use f3m_serve::protocol::Request;

#[test]
fn a_daemon_out_of_descriptors_waits_then_accepts_again() {
    let dir = std::env::temp_dir().join(format!("f3m_fd_exhaustion_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    let mut daemon = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 32 && exec "$0" serve --addr 127.0.0.1:0 --jobs 1 --metrics "$1""#)
        .arg(env!("CARGO_BIN_EXE_f3m"))
        .arg(&metrics)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(daemon.stderr.take().unwrap());
    let mut line = String::new();
    while !line.contains("listening on ") {
        line.clear();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "the daemon exited before listening");
    }
    let addr = line.split("listening on ").nth(1).unwrap().split(' ').next().unwrap().to_string();
    // Drained so the daemon never blocks on a full pipe; ends at its exit.
    let drain = std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));

    // Sixty idle clients: about twenty-five fit beside the daemon's own
    // descriptors, the rest wait in the backlog for the exhausted second.
    let idle: Vec<TcpStream> = (0..60).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    std::thread::sleep(Duration::from_secs(1));
    drop(idle);

    // Once they leave, the backlog drains and a new client is served.
    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client.call_expect(Request::Ping, "pong").unwrap();
    client.call_expect(Request::Shutdown, "bye").unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            daemon.kill().unwrap();
            panic!("the daemon did not exit after `shutdown`");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "the daemon exits cleanly: {status}");
    drain.join().unwrap().unwrap();

    let dump = std::fs::read_to_string(&metrics).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let wakeups = f3m_trace::parse_metrics(&dump)
        .unwrap()
        .into_iter()
        .find(|m| m.name == "serve.readiness_wakeups")
        .expect("the metrics count readiness wakeups")
        .value;
    // A listener polled while `accept` fails wakes the loop on every wait:
    // hundreds of thousands of times in the exhausted second.
    assert!(wakeups <= 1000.0, "{wakeups} readiness wakeups");
}
