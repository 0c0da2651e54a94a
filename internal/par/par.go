// Package par is the repository's one fork/join: every phase of every
// builder, the moments passes, the force pass, the integrator's update
// loop and the message-passing baseline's ranks fan their per-processor
// work out through Do, so the fork/join structure of the original
// programs is explicit and written once.
package par

// Do runs fn(0..p-1) on p goroutines and waits for all of them — the
// "launch the pieces, drain the channel" pattern from Effective Go. With
// p == 1 it calls fn(0) on the caller's goroutine.
func Do(p int, fn func(w int)) {
	if p == 1 {
		fn(0)
		return
	}
	done := make(chan struct{}, p)
	for w := 0; w < p; w++ {
		go func(w int) {
			fn(w)
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < p; w++ {
		<-done
	}
}
