package hyracks

// WithReferenceGroupBy exposes withReferenceGroupBy to the external test
// package, which compiles whole queries through internal/core.
var WithReferenceGroupBy = withReferenceGroupBy
