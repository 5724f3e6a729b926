// The benchmark is a module of its own so that it builds from its own
// build file; its import path sits under "ace/" so it may import the
// internal packages of the module it measures, found through the
// replace directive.
module ace/bench

go 1.22

require ace v0.0.0

replace ace => ../
