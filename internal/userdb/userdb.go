// Package userdb implements the AUD — ACE User Database Service
// (§4.7, Fig 12): the registry of valid ACE users and their pertinent
// information (username, password, full name, identification data
// such as iButton serials and fingerprint templates, and public
// keys), plus the user's current location as maintained by the ID
// Monitor (§7.2).
package userdb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hier"
)

// ServiceName is the conventional instance name of the user database
// daemon.
const ServiceName = "aud"

// User is one registered ACE user.
type User struct {
	Username    string
	FullName    string
	PassHash    string // hex sha256 of the password
	IButton     uint64 // iButton serial number, 0 = none
	Fingerprint string // hex-encoded enrolled fingerprint template
	PublicKey   string // hex public key (LAN account linkage)
	// Location is the user's last identified access point (room), ""
	// when unknown; updated by the ID Monitor on identifications.
	Location string
}

// HashPassword hashes a password for storage.
func HashPassword(pw string) string {
	sum := sha256.Sum256([]byte(pw))
	return hex.EncodeToString(sum[:])
}

// DB is the in-memory user registry, usable directly in-process and
// wrapped by Service as an ACE daemon.
type DB struct {
	mu    sync.RWMutex
	users map[string]*User
}

// NewDB returns an empty user database.
func NewDB() *DB { return &DB{users: make(map[string]*User)} }

// Add registers a new user. It fails on duplicate usernames or
// duplicate iButton serials (a token must identify one person).
func (db *DB) Add(u User) error {
	if u.Username == "" {
		return fmt.Errorf("userdb: user without a username")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.users[u.Username]; exists {
		return fmt.Errorf("userdb: user %q already registered", u.Username)
	}
	if u.IButton != 0 {
		for _, other := range db.users {
			if other.IButton == u.IButton {
				return fmt.Errorf("userdb: iButton %d already bound to %q", u.IButton, other.Username)
			}
		}
	}
	cp := u
	db.users[u.Username] = &cp
	return nil
}

// Get returns the named user.
func (db *DB) Get(username string) (User, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	u, ok := db.users[username]
	if !ok {
		return User{}, false
	}
	return *u, true
}

// Remove deletes a user, reporting whether it existed.
func (db *DB) Remove(username string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.users[username]
	delete(db.users, username)
	return ok
}

// Update applies fn to the named user under the lock.
func (db *DB) Update(username string, fn func(*User)) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	u, ok := db.users[username]
	if !ok {
		return fmt.Errorf("userdb: no user %q", username)
	}
	fn(u)
	return nil
}

// CheckPassword verifies a username/password pair.
func (db *DB) CheckPassword(username, password string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	u, ok := db.users[username]
	return ok && u.PassHash == HashPassword(password)
}

// ByIButton finds the user bound to an iButton serial.
func (db *DB) ByIButton(serial uint64) (User, bool) {
	if serial == 0 {
		return User{}, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, u := range db.users {
		if u.IButton == serial {
			return *u, true
		}
	}
	return User{}, false
}

// SetLocation records the user's current access location.
func (db *DB) SetLocation(username, room string) error {
	return db.Update(username, func(u *User) { u.Location = room })
}

// Usernames lists all registered usernames, sorted.
func (db *DB) Usernames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.users))
	for n := range db.users {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Fingerprints returns the username → enrolled-template table loaded
// by the FIU service at startup (§4.8).
func (db *DB) Fingerprints() map[string]string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]string)
	for n, u := range db.users {
		if u.Fingerprint != "" {
			out[n] = u.Fingerprint
		}
	}
	return out
}

// Service is the AUD wrapped as an ACE daemon (Fig 12: an interface
// for services wishing to store and access user information).
type Service struct {
	*daemon.Daemon
	db *DB
}

// New constructs the user database daemon around db (a fresh DB when
// nil).
func New(dcfg daemon.Config, db *DB) *Service {
	if db == nil {
		db = NewDB()
	}
	if dcfg.Name == "" {
		dcfg.Name = ServiceName
	}
	if dcfg.Class == "" {
		dcfg.Class = hier.ClassDatabase + ".User"
	}
	s := &Service{Daemon: daemon.New(dcfg), db: db}
	s.install()
	return s
}

// DB exposes the underlying registry.
func (s *Service) DB() *DB { return s.db }

func userReply(u User) *cmdlang.CmdLine {
	r := cmdlang.OK().
		SetWord("username", u.Username).
		SetString("fullname", u.FullName).
		SetInt("ibutton", int64(u.IButton)).
		SetString("fingerprint", u.Fingerprint).
		SetString("publickey", u.PublicKey)
	if u.Location != "" {
		r.SetWord("location", u.Location)
	}
	return r
}

func (s *Service) install() {
	s.Handle(cmdlang.CommandSpec{
		Name: "addUser",
		Doc:  "register a new ACE user (Scenario 1)",
		Args: []cmdlang.ArgSpec{
			{Name: "username", Kind: cmdlang.KindWord, Required: true},
			{Name: "fullname", Kind: cmdlang.KindString},
			{Name: "password", Kind: cmdlang.KindString},
			{Name: "ibutton", Kind: cmdlang.KindInt},
			{Name: "fingerprint", Kind: cmdlang.KindString},
			{Name: "publickey", Kind: cmdlang.KindString},
		},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		u := User{
			Username:    c.Str("username", ""),
			FullName:    c.Str("fullname", ""),
			IButton:     uint64(c.Int("ibutton", 0)),
			Fingerprint: c.Str("fingerprint", ""),
			PublicKey:   c.Str("publickey", ""),
		}
		if pw := c.Str("password", ""); pw != "" {
			u.PassHash = HashPassword(pw)
		}
		if err := s.db.Add(u); err != nil {
			return cmdlang.Fail(cmdlang.CodeConflict, err.Error()), nil
		}
		return nil, nil
	})

	s.Handle(cmdlang.CommandSpec{
		Name: "getUser",
		Args: []cmdlang.ArgSpec{{Name: "username", Kind: cmdlang.KindWord, Required: true}},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		u, ok := s.db.Get(c.Str("username", ""))
		if !ok {
			return cmdlang.Fail(cmdlang.CodeNotFound, "no such user"), nil
		}
		return userReply(u), nil
	})

	//acelint:ignore verbconformance operator verb: issued through acectl's dynamic call/raw passthrough
	s.Handle(cmdlang.CommandSpec{
		Name: "removeUser",
		Args: []cmdlang.ArgSpec{{Name: "username", Kind: cmdlang.KindWord, Required: true}},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		existed := s.db.Remove(c.Str("username", ""))
		return cmdlang.OK().SetBool("existed", existed), nil
	})

	s.Handle(cmdlang.CommandSpec{
		Name: "checkPassword",
		Args: []cmdlang.ArgSpec{
			{Name: "username", Kind: cmdlang.KindWord, Required: true},
			{Name: "password", Kind: cmdlang.KindString, Required: true},
		},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		ok := s.db.CheckPassword(c.Str("username", ""), c.Str("password", ""))
		return cmdlang.OK().SetBool("valid", ok), nil
	})

	s.Handle(cmdlang.CommandSpec{
		Name: "byIButton",
		Doc:  "identify the user bound to an iButton serial (§4.9)",
		Args: []cmdlang.ArgSpec{{Name: "serial", Kind: cmdlang.KindInt, Required: true}},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		u, ok := s.db.ByIButton(uint64(c.Int("serial", 0)))
		if !ok {
			return cmdlang.Fail(cmdlang.CodeNotFound, "unknown iButton"), nil
		}
		return userReply(u), nil
	})

	s.Handle(cmdlang.CommandSpec{
		Name: "setLocation",
		Doc:  "record a user's current access location (Scenario 2)",
		Args: []cmdlang.ArgSpec{
			{Name: "username", Kind: cmdlang.KindWord, Required: true},
			{Name: "room", Kind: cmdlang.KindWord, Required: true},
		},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		if err := s.db.SetLocation(c.Str("username", ""), c.Str("room", "")); err != nil {
			return cmdlang.Fail(cmdlang.CodeNotFound, err.Error()), nil
		}
		return nil, nil
	})

	s.Handle(cmdlang.CommandSpec{Name: "listUsers"}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		names := s.db.Usernames()
		return cmdlang.OK().SetInt("count", int64(len(names))).Set("usernames", cmdlang.WordVector(names...)), nil
	})

	s.Handle(cmdlang.CommandSpec{
		Name: "fingerprintTable",
		Doc:  "enrolled fingerprint templates, loaded by the FIU at startup",
	}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		table := s.db.Fingerprints()
		users := make([]string, 0, len(table))
		for u := range table {
			users = append(users, u)
		}
		sort.Strings(users)
		templates := make([]string, len(users))
		for i, u := range users {
			templates[i] = table[u]
		}
		return cmdlang.OK().
			Set("usernames", cmdlang.WordVector(users...)).
			Set("templates", cmdlang.StringVector(templates...)), nil
	})
}
