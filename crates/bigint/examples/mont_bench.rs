//! Micro-benchmark: nanoseconds per Montgomery multiplication and squaring at the limb
//! widths the workspace runs (4, 8, 16 and 32 limbs take exact-width instances of the
//! kernel) and at runtime widths between and beyond them (12, 24, 48, 96 limbs).
//! Each row ends with the context's `Debug`, which names the kernel body that produced
//! the row: `adx` (8, 16 and 32 limbs on a CPU with BMI2 and ADX) or `portable`.
//!
//! Each width times `mont_mul(acc, y)` and `mont_sqr(acc)` chains through the public
//! API in short interleaved batches and reports the fastest batch, which filters out
//! the interference of other processes on a shared machine. The squaring chain is
//! asserted equal to the `mont_mul(x, x)` chain bit for bit.
//!
//! ```bash
//! cargo run --release -p uldp-bigint --example mont_bench
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use uldp_bigint::montgomery::ModulusCtx;
use uldp_bigint::BigUint;

const BATCHES: usize = 40;

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    println!("limbs  bits  mont_mul_ns  mont_sqr_ns  context");
    for limbs in [4usize, 8, 12, 16, 24, 32, 48, 96] {
        let mut n = BigUint::random_with_bits(&mut rng, limbs * 64);
        if n.is_even() {
            n = n.add(&BigUint::one());
        }
        let ctx = ModulusCtx::new(&n);
        let x = ctx.to_mont(&BigUint::random_below(&mut rng, &n));
        let y = ctx.to_mont(&BigUint::random_below(&mut rng, &n));
        // About a millisecond per batch at every width (the cost grows quadratically).
        let iters = (4_000_000 / (limbs * limbs)).max(100);
        let (mut mul_ns, mut sqr_ns) = (f64::MAX, f64::MAX);
        for _ in 0..BATCHES {
            let t = Instant::now();
            let mut a = x.clone();
            for _ in 0..iters {
                a = ctx.mont_mul(&a, &y);
            }
            black_box(&a);
            mul_ns = mul_ns.min(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
            let t = Instant::now();
            let mut b = x.clone();
            for _ in 0..iters {
                b = ctx.mont_sqr(&b);
            }
            black_box(&b);
            sqr_ns = sqr_ns.min(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        let (mut a, mut b) = (x.clone(), x.clone());
        for _ in 0..100 {
            a = ctx.mont_mul(&a, &a);
            b = ctx.mont_sqr(&b);
        }
        assert_eq!(a, b, "squaring chain must match the mul(x, x) chain bit for bit");
        println!("{limbs:>5}  {:>4}  {mul_ns:>11.1}  {sqr_ns:>11.1}  {ctx:?}", limbs * 64);
    }
}
