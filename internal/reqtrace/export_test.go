package reqtrace

// The recorder's fixed sizing, for the external tests that publish past
// it.
const (
	RingCap       = ringCap
	SlowThreshold = slowThreshold
	SlowK         = slowK
)
