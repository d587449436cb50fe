package drbw

// SetCollectorMaxKept shrinks the detector's per-run sample cap so tests
// can force the collector's reservoir to overflow (Weight > 1) without a
// full-length run. It returns a restore function for the previous cap.
func SetCollectorMaxKept(t *Tool, n int) (restore func()) {
	prev := t.detector.Ccfg.MaxKept
	t.detector.Ccfg.MaxKept = n
	return func() { t.detector.Ccfg.MaxKept = prev }
}

// SetTestHookPlanned installs a hook that runs after a file analysis has
// planned its inputs and before the fused pass, told whether the plan's
// bounds came from the index footer (true) or a pre-scan (false). Tests
// use it to check which inputs skip the pre-scan and to mutate a recording
// mid-analysis. It returns a restore function for the previous hook.
func SetTestHookPlanned(f func(footer bool)) (restore func()) {
	prev := testHookPlanned
	testHookPlanned = f
	return func() { testHookPlanned = prev }
}
