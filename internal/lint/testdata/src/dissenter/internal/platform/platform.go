// Package platform is a typecheck-only stub of the real store for lint
// fixtures: just enough surface (DB methods, the View seam, the wire
// structs) for the analyzers' type-based matching to engage.
package platform

type User struct {
	ID       int64
	Username string
}

type Comment struct {
	ID   int64
	Text string
}

type Event interface{ isEvent() }

type UserAdded struct{ User *User }

func (UserAdded) isEvent() {}

type View interface {
	Apply(db *DB, ev Event)
	Rebuild(db *DB)
}

type DB struct{ users []*User }

// Write path (viewpurity's and cachecoherence's quarry).
func (db *DB) AddUser(u *User) error             { return nil }
func (db *DB) SubmitURL(url string) error        { return nil }
func (db *DB) AddComment(c *Comment) error       { return nil }
func (db *DB) AddFollow(from, to int64) error    { return nil }
func (db *DB) Vote(id int64, up, down int) error { return nil }
func (db *DB) RegisterView(v View)               {}
func (db *DB) ApplyEvent(ev Event)               {}

// Read surface views may use freely.
func (db *DB) URLByID(id int64) string       { return "" }
func (db *DB) RangeUsers(f func(*User) bool) {}
