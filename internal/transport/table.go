package transport

import "sync"

// sessionTable is the id → session map. Its lock guards only the map —
// per-session state sits behind each session's own mutex — and is taken
// once per request, never per record, so readers share an RWMutex and
// writers (create, retention delete, restore) hold it for a map
// operation plus, on the live path, the buffered WAL append that must be
// ordered with it (see apply).
type sessionTable struct {
	mu       sync.RWMutex
	sessions map[string]*session
	enc      []byte // create and delete records' encoding buffer, guarded by mu held for writing
}

// get returns the session registered under id, nil when absent.
func (t *sessionTable) get(id string) *session {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sessions[id]
}

// all collects every registered session. Sessions may be added or
// retired right after; callers lock each one before reading its state
// and tolerate both flavours of skew.
func (t *sessionTable) all() []*session {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*session, 0, len(t.sessions))
	for _, sess := range t.sessions {
		out = append(out, sess)
	}
	return out
}

// size counts registered sessions.
func (t *sessionTable) size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.sessions)
}
