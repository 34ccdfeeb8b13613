package tcp

// SetClientReuse turns the client free list on or off and returns a
// function that restores the previous setting.
func SetClientReuse(on bool) (restore func()) {
	old := clientReuse
	clientReuse = on
	return func() { clientReuse = old }
}

// ClientObjects reports how many far-end client models the stack has
// made: the peak of clients in flight, since retired ones are reused.
func (st *Stack) ClientObjects() int { return st.clientObjects }
