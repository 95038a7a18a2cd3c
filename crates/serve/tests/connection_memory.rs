//! A keep-alive connection must not keep its largest message in memory:
//! once a multi-megabyte response has been flushed (or a multi-megabyte
//! request body consumed), the server's live heap returns to where it was
//! before the request, while the connection stays open.
//!
//! This binary installs a global allocator that tracks live heap bytes
//! across every thread, so it lives apart from the other serve suites and
//! holds a single test (a second one would allocate concurrently).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

use morer_core::config::MorerConfig;
use morer_core::pipeline::Morer;
use morer_core::repository::ModelRepository;
use morer_core::testutil::entry_with_mu;
use morer_core::wal::{Durability, BASE_FILE};
use morer_serve::{MorerServer, ServeConfig};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// plain atomic, which never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Heap growth tolerated across one request: per-request bookkeeping
/// (trace spans, metrics), far below the multi-megabyte messages sent.
const SLACK: isize = 512 << 10;

/// Send one request and read its response off the socket in fixed-size
/// chunks, discarding the body; returns `(status, body bytes)`. The test
/// client allocates nothing per body byte, so any retained heap is the
/// server's.
fn exchange(stream: &mut TcpStream, method: &str, path: &str, body: &[u8]) -> (u16, usize) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    let status = head[9..12].parse().unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().unwrap())
        })
        .expect("a Content-Length header");
    let mut chunk = [0u8; 16 << 10];
    let mut left = len;
    while left > 0 {
        let n = stream.read(&mut chunk[..left.min(16 << 10)]).unwrap();
        assert!(n > 0, "server closed mid-body");
        left -= n;
    }
    (status, len)
}

/// Wait (briefly) for the live heap to fall back to `baseline + SLACK`;
/// the server releases its buffers just after the last bytes are written.
fn settled_growth(baseline: isize) -> isize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let growth = LIVE.load(Ordering::Relaxed) - baseline;
        if growth <= SLACK || Instant::now() >= deadline {
            return growth;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn keep_alive_connection_releases_large_messages() {
    let dir = std::env::temp_dir().join(format!("morer_conn_memory_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repository = ModelRepository {
        entries: (0..1000).map(|i| entry_with_mu(i, 0.2 + 0.6 * (i as f64 / 1000.0))).collect(),
    };
    let handle = MorerServer::start(
        Morer::from_repository(repository, &MorerConfig::default()),
        &ServeConfig {
            wal_dir: Some(dir.clone()),
            durability: Durability::Buffered,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let base_len = std::fs::metadata(dir.join(BASE_FILE)).unwrap().len() as usize;
    assert!(base_len >= 2 << 20, "the base must be multi-MB, is {base_len} bytes");

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // a small exchange first, so the connection's own state exists
    assert_eq!(exchange(&mut stream, "GET", "/healthz", b"").0, 200);

    // a multi-MB response on the keep-alive connection
    let before = LIVE.load(Ordering::Relaxed);
    assert_eq!(exchange(&mut stream, "GET", "/wal/base", b""), (200, base_len));
    let growth = settled_growth(before);
    assert!(
        growth <= SLACK,
        "a {base_len}-byte response left {growth} bytes of live heap behind"
    );

    // a multi-MB request body on the same connection (a 400: it is not a
    // problem, but the reactor buffers it whole before dispatch)
    let body = vec![b'x'; 4 << 20];
    let before = LIVE.load(Ordering::Relaxed);
    assert_eq!(exchange(&mut stream, "POST", "/search", &body).0, 400);
    let growth = settled_growth(before);
    assert!(
        growth <= SLACK,
        "a {}-byte request left {growth} bytes of live heap behind",
        body.len()
    );

    // the connection is still open and serving
    assert_eq!(exchange(&mut stream, "GET", "/healthz", b"").0, 200);
    drop(stream);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
