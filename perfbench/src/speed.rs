//! The machine's speed, measured with a fixed reference kernel between the
//! ops, so that the end-to-end times can be read at one nominal speed.
//!
//! A shared 2-vCPU VM changes speed by up to a half within minutes, on
//! wall and on CPU time alike (a warm `anchored-6k` goal took 4.1 ms and,
//! a few minutes later with no steal, 6.2 ms), so two sets of runs of the
//! same code disagree by more than any bound a regression check can use.
//! The kernel below is the benchmark's own code: a change to the program
//! does not change it. Every end-to-end time is multiplied by the kernel's
//! nominal time over its time measured around the op, so it reads as the
//! time the op would have taken at the speed the nominal times were taken
//! at. The raw figures and the speed are printed in the summary.
//!
//! The kernel runs only while the program is idle (between ops, between
//! closed-loop slices, before each set-up), so the program's own load is
//! not in it. A change that keeps the process busy between ops (a spinning
//! background thread) would slow the kernel and so be partly hidden in the
//! scaled figures: the raw figures in the summary still show it.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::median;
use crate::sys::{process_cpu_ns, reset_on_close};

/// What the kernel does: engine-like work only, or also the loopback TCP
/// round trips a request to the server makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Compute,
    ComputeAndNetwork,
}

impl Kernel {
    /// The kernel's nominal time per unit, wall and CPU seconds: a round
    /// figure near its median on the 2-vCPU VM the benchmark was designed
    /// on (2.1–2.6 ms and 5.6–6.5 ms over spells of different speed).
    /// Scaled times read as if each kernel unit had taken this long.
    fn nominal(self) -> Speed {
        let seconds = match self {
            Kernel::Compute => 2.0e-3,
            Kernel::ComputeAndNetwork => 6.0e-3,
        };
        Speed {
            wall_s: seconds,
            cpu_s: seconds,
        }
    }
}

/// One kernel unit's wall and CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Rows of the kernel's table: `Debug`-printed and hashed, as the engine
/// fingerprints an instance.
#[derive(Debug)]
struct Row {
    relation: &'static str,
    args: Vec<String>,
    probability: f64,
}

fn rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| Row {
            relation: "R",
            args: vec![format!("v{i}"), format!("v{}", i + 1)],
            probability: (i % 997) as f64 / 997.0,
        })
        .collect()
}

/// Rows printed per unit, and rows built and dropped per unit.
const PRINTED_ROWS: usize = 2_000;
const BUILT_ROWS: usize = 1_000;
/// Keys inserted into and looked up in a fresh hash map per unit.
const KEYS: usize = 8_192;
/// Entries of the floating-point table swept per unit.
const TABLE: usize = 16_384;

/// Loopback round trips per unit of [`Kernel::ComputeAndNetwork`].
const ROUND_TRIPS: usize = 48;

/// The reference kernel and its inputs, built once. Its mix of work was
/// chosen by how well it tracked the program: over eight 8-second runs on
/// a VM whose speed wandered, the warm `anchored-6k` goal's median time
/// spread 0.08 to 0.11 of its median across runs as measured and 0.01 to
/// 0.02 scaled by this mix (printing half as many rows); the
/// `treelike-sweep` op 0.06 to 0.12 and 0.04 to 0.07. A kernel of
/// floating-point table passes alone did not track either (0.13 to 0.33).
struct Reference {
    kernel: Kernel,
    rows: Vec<Row>,
    table: Vec<f64>,
    keys: Vec<u64>,
    echo: Option<Echo>,
}

impl Reference {
    fn new(kernel: Kernel) -> Result<Reference, String> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let keys = (0..KEYS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let echo = match kernel {
            Kernel::Compute => None,
            Kernel::ComputeAndNetwork => Some(Echo::spawn()?),
        };
        Ok(Reference {
            kernel,
            rows: rows(PRINTED_ROWS),
            table: (0..TABLE).map(|i| (i % 101) as f64 / 101.0).collect(),
            keys,
            echo,
        })
    }

    /// One unit of work; the result only keeps the optimiser honest.
    fn unit(&mut self) -> Result<u64, String> {
        // Print the rows into an FNV hash, as an instance fingerprint does.
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for b in s.bytes() {
                    self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
        let _ = write!(fnv, "{:?}", black_box(&self.rows));

        // A hash map built and probed, as the caches are.
        let mut map: HashMap<u64, usize> = HashMap::new();
        for (i, &k) in self.keys.iter().enumerate() {
            map.insert(k, i);
        }
        let found: usize = self.keys.iter().map(|k| map[&black_box(*k)]).sum();

        // Small allocations built and dropped, as lineages are.
        let built = black_box(rows(BUILT_ROWS));
        let weight: f64 = built
            .iter()
            .map(|r| r.probability * (r.relation.len() + r.args[1].len()) as f64)
            .sum();
        drop(built);

        // Floating-point passes over a table, as the sweep makes.
        for pass in 0..2 {
            let q = 0.25 + pass as f64 / 8.0;
            for i in 1..self.table.len() {
                self.table[i] = self.table[i] * q + self.table[i - 1] * (1.0 - q);
            }
        }
        let mut out = fnv.0 ^ found as u64 ^ (self.table[TABLE / 2] + weight).to_bits();

        if let Some(echo) = &self.echo {
            out ^= echo.round_trips()?;
        }
        Ok(black_box(out))
    }
}

/// Request and reply sizes of a round trip, about those of a `serve-mix`
/// request.
const REQUEST_BYTES: usize = 160;
const REPLY_BYTES: usize = 240;

/// A loopback echo server on a thread of its own: it accepts a
/// connection, reads a request, writes a reply and closes, as the program's
/// server does for a request, with no work in between. Dropping it stops
/// the thread and waits for it.
struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn spawn() -> Result<Echo, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reference listener: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stopping.load(Ordering::Acquire) {
                    break;
                }
                // A failed exchange shows on the client side.
                let Ok(mut conn) = conn else { continue };
                let mut request = [0u8; REQUEST_BYTES];
                if conn.read_exact(&mut request).is_ok() {
                    let _ = conn.write_all(&[b'r'; REPLY_BYTES]);
                }
            }
        });
        Ok(Echo {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// [`ROUND_TRIPS`] request–reply exchanges, each over a fresh
    /// connection that the client resets once the reply is read.
    fn round_trips(&self) -> Result<u64, String> {
        let io = |e: std::io::Error| format!("reference round trip: {e}");
        let mut got = 0u64;
        for _ in 0..ROUND_TRIPS {
            let mut client = TcpStream::connect(self.addr).map_err(io)?;
            client.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
            client.write_all(&[b'q'; REQUEST_BYTES]).map_err(io)?;
            let mut reply = Vec::with_capacity(REPLY_BYTES);
            client.read_to_end(&mut reply).map_err(io)?;
            if reply.len() != REPLY_BYTES {
                return Err(format!("reference round trip: {} reply bytes", reply.len()));
            }
            reset_on_close(&client).map_err(io)?;
            got += reply.len() as u64;
        }
        Ok(got)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the accept loop so that it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The latest probes, whose median is the speed estimate.
const WINDOW: usize = 5;

/// Measures the machine's speed as the program runs: a probe runs one
/// kernel unit; the speed is the median over the last [`WINDOW`] probes.
pub struct Speedometer {
    reference: Reference,
    recent: VecDeque<Speed>,
    every: Duration,
    last: Option<Instant>,
    /// Every probe of the run, for the summary.
    all: Vec<Speed>,
}

impl Speedometer {
    /// A speedometer that probes at most once per `every` in [`tick`].
    ///
    /// [`tick`]: Speedometer::tick
    pub fn new(kernel: Kernel, every: Duration) -> Result<Speedometer, String> {
        let mut reference = Reference::new(kernel)?;
        // One unwarmed unit, not counted: the first touches cold memory.
        reference.unit()?;
        Ok(Speedometer {
            reference,
            recent: VecDeque::with_capacity(WINDOW),
            every,
            last: None,
            all: Vec::new(),
        })
    }

    /// Runs `n` probes now and returns them.
    pub fn probe(&mut self, n: usize) -> Result<Vec<Speed>, String> {
        let mut probes = Vec::with_capacity(n);
        for _ in 0..n {
            let cpu = process_cpu_ns();
            let started = Instant::now();
            self.reference.unit()?;
            let speed = Speed {
                wall_s: started.elapsed().as_secs_f64(),
                cpu_s: (process_cpu_ns() - cpu) as f64 / 1e9,
            };
            if self.recent.len() == WINDOW {
                self.recent.pop_front();
            }
            self.recent.push_back(speed);
            self.all.push(speed);
            probes.push(speed);
        }
        self.last = Some(Instant::now());
        Ok(probes)
    }

    /// Probes once if the last probe is older than `every` (or there is
    /// none).
    pub fn tick(&mut self) -> Result<(), String> {
        match self.last {
            Some(last) if last.elapsed() < self.every => Ok(()),
            _ => self.probe(1).map(drop),
        }
    }

    /// What to multiply a measured wall time and CPU time by to read them
    /// at the nominal speed: nominal over the current estimate.
    pub fn scale(&self) -> Scale {
        self.scale_over(self.recent.iter())
    }

    /// The scale at the median speed of `probes`.
    pub fn scale_over<'a>(&self, probes: impl IntoIterator<Item = &'a Speed>) -> Scale {
        let nominal = self.reference.kernel.nominal();
        let (wall, cpu): (Vec<f64>, Vec<f64>) =
            probes.into_iter().map(|s| (s.wall_s, s.cpu_s)).unzip();
        if wall.is_empty() {
            return Scale::ONE;
        }
        Scale {
            wall: nominal.wall_s / median(&wall),
            cpu: nominal.cpu_s / median(&cpu),
        }
    }

    /// The median unit time over the run, wall and CPU, for the summary.
    pub fn summary(&self) -> String {
        let wall: Vec<f64> = self.all.iter().map(|s| s.wall_s * 1e3).collect();
        let cpu: Vec<f64> = self.all.iter().map(|s| s.cpu_s * 1e3).collect();
        let nominal = self.reference.kernel.nominal();
        format!(
            "speed: {} reference units of {:?}, median {:.4} ms wall {:.4} ms cpu \
             (nominal {:.4} / {:.4}); times below are scaled to the nominal speed",
            self.all.len(),
            self.reference.kernel,
            median(&wall),
            median(&cpu),
            nominal.wall_s * 1e3,
            nominal.cpu_s * 1e3
        )
    }
}

/// Factors that take measured wall and CPU time to the nominal speed.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub wall: f64,
    pub cpu: f64,
}

impl Scale {
    pub const ONE: Scale = Scale {
        wall: 1.0,
        cpu: 1.0,
    };
}
