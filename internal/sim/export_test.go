package sim

// SetAlwaysPark makes every Engine.Drive refuse while on is set, so each
// waiting context parks as it did before driving existed, and returns a
// func that restores the previous setting. Not safe while simulations
// run concurrently.
func SetAlwaysPark(on bool) (restore func()) {
	prev := alwaysPark
	alwaysPark = on
	return func() { alwaysPark = prev }
}

// SetResumeHook installs fn to be called on every Resume that switches
// into a coroutine (not on one that only marks a driving coroutine
// woken), and returns a func that uninstalls it. Not safe while
// simulations run concurrently.
func SetResumeHook(fn func()) (restore func()) {
	prev := resumeHook
	resumeHook = fn
	return func() { resumeHook = prev }
}
