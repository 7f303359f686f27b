//! Synthetic CAT runner entry for the graph corpus: `SimRequest::run` is
//! an R010 entry point, and the call chain crosses into the `linalg`
//! fixture file.

struct SimRequest;

impl SimRequest {
    fn run(self) {
        helper();
    }
}

fn helper() {
    deep_unwrap(Some(1.0));
}
