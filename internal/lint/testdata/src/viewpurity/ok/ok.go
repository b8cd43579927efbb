package ok

import "dissenter/internal/platform"

// counter is a pure View: it derives from the event and the store's
// read surface only.
type counter struct{ n int }

func (c *counter) Apply(db *platform.DB, ev platform.Event) {
	c.n++
	_ = db.URLByID(1)
}

func (c *counter) Rebuild(db *platform.DB) {
	c.n = 0
	db.RangeUsers(func(*platform.User) bool { c.n++; return true })
}

// notAView happens to have an Apply method but does not implement
// platform.View, so its writes are its own business.
type notAView struct{}

func (notAView) Apply(db *platform.DB, ev platform.Event) {
	db.AddUser(nil)
}
