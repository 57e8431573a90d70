package store

import (
	"fmt"
	"strings"
)

// DialAttempt records one failed try against one address during a
// failover walk.
type DialAttempt struct {
	Addr string
	Err  error
}

// DialError aggregates a whole failed failover walk: every address
// tried and the error each produced, instead of only the last dial
// error. Callers debugging a store outage can see at a glance which
// servers were unreachable and why.
type DialError struct {
	Op       string // operation being attempted ("dial" for initial connect)
	Attempts []DialAttempt
}

// Error lists every attempt.
func (e *DialError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "store: all %d replicas failed for %s: ", len(e.Attempts), e.Op)
	for i, a := range e.Attempts {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %v", a.Addr, a.Err)
	}
	return b.String()
}

// Unwrap exposes the last attempt's error, preserving errors.Is/As
// chains that previously matched the bare last error.
func (e *DialError) Unwrap() error {
	if len(e.Attempts) == 0 {
		return nil
	}
	return e.Attempts[len(e.Attempts)-1].Err
}

// BehindError is returned by AppendLogAt when the server's log is
// shorter than the expected offset: it is missing a prefix and cannot
// accept the record there. Size is the log's current size.
type BehindError struct {
	Node uint32
	Size int64
}

func (e *BehindError) Error() string {
	return fmt.Sprintf("store: node %d log behind at size %d", e.Node, e.Size)
}
