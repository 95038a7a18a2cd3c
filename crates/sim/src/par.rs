//! Minimal data-parallel helpers built on scoped `std::thread`.
//!
//! The workspace's only parallelism primitive (there is no rayon): the
//! featurization hot path and the distribution analysis use these helpers
//! directly. They give real multi-core speedups on machines that have the
//! cores and degrade to plain loops on single-core machines. Model training
//! (forests, AL committees, baselines) stays sequential.

use std::num::NonZeroUsize;

/// Number of worker threads to use for `n_items` work items, given a
/// minimum profitable chunk size.
pub fn thread_count(n_items: usize, min_chunk: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(n_items / min_chunk.max(1)).max(1)
}

/// Fill a row-major `rows × cols` buffer in parallel: `fill(i, row)` is
/// called exactly once per row index `i`, in unspecified thread order, with
/// rows handed out as contiguous per-thread chunks.
///
/// Falls back to a sequential loop when only one thread is profitable.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `cols` (for `cols > 0`).
pub fn fill_rows<F>(data: &mut [f64], cols: usize, fill: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if cols == 0 || data.is_empty() {
        return;
    }
    assert_eq!(data.len() % cols, 0, "buffer length must be rows * cols");
    let rows = data.len() / cols;
    // below ~4k rows thread spawn overhead beats the win
    let threads = thread_count(rows, 4096);
    if threads <= 1 {
        for (i, row) in data.chunks_mut(cols).enumerate() {
            fill(i, row);
        }
        return;
    }
    let rows_per_thread = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (chunk_idx, chunk) in data.chunks_mut(rows_per_thread * cols).enumerate() {
            let fill = &fill;
            scope.spawn(move || {
                let base = chunk_idx * rows_per_thread;
                for (i, row) in chunk.chunks_mut(cols).enumerate() {
                    fill(base + i, row);
                }
            });
        }
    });
}

/// Map `f` over `0..n` with scoped worker threads, collecting the results
/// in index order. Indices are handed out as contiguous per-thread chunks;
/// `min_chunk` is the smallest per-thread chunk worth a thread spawn.
///
/// Falls back to a plain sequential map when only one thread is profitable,
/// so single-core machines pay no overhead. Used by the distribution
/// analysis to fan the O(P²) problem-pair loop out over cores.
pub fn map_indexed<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = thread_count(n, min_chunk);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let per_thread = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                scope.spawn(move || {
                    let lo = t * per_thread;
                    let hi = ((t + 1) * per_thread).min(n);
                    (lo..hi).map(f).collect::<Vec<T>>()
                })
            })
            .collect();
        for h in handles {
            chunks.push(h.join().expect("map_indexed worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_rows_visits_every_row_once() {
        let cols = 3;
        let rows = 1000;
        let mut data = vec![0.0; rows * cols];
        fill_rows(&mut data, cols, |i, row| {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (i * cols + j) as f64;
            }
        });
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k as f64);
        }
    }

    #[test]
    fn fill_rows_handles_degenerate_shapes() {
        let mut empty: Vec<f64> = Vec::new();
        fill_rows(&mut empty, 4, |_, _| panic!("no rows to fill"));
        fill_rows(&mut empty, 0, |_, _| panic!("no rows to fill"));
        let mut one = vec![0.0; 2];
        fill_rows(&mut one, 2, |i, row| row.fill(i as f64 + 7.0));
        assert_eq!(one, vec![7.0, 7.0]);
    }

    #[test]
    fn map_indexed_preserves_index_order() {
        let out = map_indexed(10_000, 1, |i| i * 3);
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn map_indexed_handles_degenerate_sizes() {
        assert_eq!(map_indexed(0, 1, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 1024, |i| i + 5), vec![5]);
        // n smaller than a profitable chunk stays sequential but complete
        assert_eq!(map_indexed(3, 1_000_000, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn thread_count_is_bounded() {
        assert_eq!(thread_count(0, 1024), 1);
        assert_eq!(thread_count(100, 1024), 1);
        assert!(thread_count(1 << 20, 1024) >= 1);
    }
}
