package engine

// SampleBound exposes sampleBound to the external engine tests.
var SampleBound = sampleBound
