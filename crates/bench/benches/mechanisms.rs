//! Micro-benchmarks of the local randomizers.

use ns_bench::timer::bench;
use ns_dp::mechanisms::{Laplace, PrivUnit, RandomizedResponse};
use ns_dp::rng::seeded_rng;
use ns_dp::LocalRandomizer;

fn main() {
    let rr = RandomizedResponse::new(16, 1.0).expect("mechanism");
    let mut rng = seeded_rng(1);
    bench("randomized_response_k16", || {
        rr.randomize(&3, &mut rng).expect("report")
    });

    let lap = Laplace::new(0.0, 1.0, 1.0).expect("mechanism");
    let mut rng = seeded_rng(2);
    bench("laplace_unit_interval", || {
        lap.randomize(&0.5, &mut rng).expect("report")
    });

    bench("priv_unit/construct_d200", || {
        PrivUnit::new(200, 1.0).expect("mechanism")
    });
    let mech = PrivUnit::new(200, 1.0).expect("mechanism");
    let mut input = vec![0.0; 200];
    input[0] = 1.0;
    let mut rng = seeded_rng(3);
    bench("priv_unit/randomize_d200", || {
        mech.randomize(&input, &mut rng).expect("report")
    });
}
