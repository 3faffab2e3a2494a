package live

import (
	"errors"
	"testing"

	"radar/internal/protocol"
)

func TestDecodeValidCreateObj(t *testing.T) {
	msg := CreateObjMsg{
		MsgID: 5, From: 0, To: 2, Method: protocol.Replicate.String(),
		Object: 17, UnitLoad: 0.25, SrcAff: 3, Now: 1000,
	}
	var got CreateObjMsg
	if err := Decode(Encode(&msg), &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got != msg {
		t.Fatalf("round trip: got %+v, want %+v", got, msg)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		field string // expected WireError.Field; "" for whole-body errors
	}{
		{"truncated json", `{"msg_id":`, ""},
		{"wrong type", `{"msg_id":"yes"}`, ""},
		{"zero msg id", `{"msg_id":0,"method":"REPLICATE","src_aff":1}`, "msg_id"},
		{"negative node", `{"msg_id":1,"from":-3,"method":"REPLICATE","src_aff":1}`, "from"},
		{"bad method", `{"msg_id":1,"method":"STEAL","src_aff":1}`, "method"},
		{"negative object", `{"msg_id":1,"method":"MIGRATE","object":-1,"src_aff":1}`, "object"},
		{"nan unit load", `{"msg_id":1,"method":"MIGRATE","unit_load":"nan","src_aff":1}`, ""},
		{"zero affinity", `{"msg_id":1,"method":"MIGRATE","src_aff":0}`, "src_aff"},
		{"negative time", `{"msg_id":1,"method":"MIGRATE","src_aff":1,"now":-5}`, "now"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var msg CreateObjMsg
			err := Decode([]byte(tc.body), &msg)
			if err == nil {
				t.Fatal("Decode accepted malformed body")
			}
			var we *WireError
			if !errors.As(err, &we) {
				t.Fatalf("error %T is not *WireError: %v", err, err)
			}
			if we.Field != tc.field {
				t.Fatalf("WireError.Field = %q, want %q", we.Field, tc.field)
			}
		})
	}
}

func TestDecodeEventValidation(t *testing.T) {
	ev := Event{At: 10, Kind: EventReplicate, Object: 3, From: 1, To: 2, Move: "repair"}
	var got Event
	if err := Decode(Encode(&ev), &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got != ev {
		t.Fatalf("round trip: got %+v, want %+v", got, ev)
	}
	for _, tc := range []struct {
		ev    Event
		field string
	}{
		{Event{At: 10, Kind: "teleport"}, "kind"},
		{Event{At: 10, Kind: EventMigrate, Move: "bogus"}, "move"},
		{Event{At: 10, Kind: EventReplicate}, "move"},
		{Event{At: 10, Kind: EventRefuse, Method: "STEAL"}, "method"},
		{Event{At: 10, Kind: EventDefer}, "method"},
	} {
		var dst Event
		err := Decode(Encode(&tc.ev), &dst)
		var we *WireError
		if !errors.As(err, &we) || we.Field != tc.field {
			t.Errorf("%+v: err = %v, want WireError on field %s", tc.ev, err, tc.field)
		}
	}
	// Drops and copies carry neither a move kind nor a method.
	for _, ev := range []Event{{Kind: EventDrop, Object: 1}, {Kind: EventCopy, Object: 1, To: 2}} {
		var dst Event
		if err := Decode(Encode(&ev), &dst); err != nil {
			t.Errorf("%+v: %v", ev, err)
		}
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range []protocol.Method{protocol.Migrate, protocol.Replicate, protocol.Repair} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("EXFILTRATE"); err == nil {
		t.Fatal("ParseMethod accepted unknown name")
	}
}

func TestParseMoveKindRoundTrip(t *testing.T) {
	for _, k := range []protocol.MoveKind{protocol.GeoMove, protocol.LoadMove, protocol.RepairMove} {
		got, err := ParseMoveKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseMoveKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseMoveKind("sideways"); err == nil {
		t.Fatal("ParseMoveKind accepted unknown name")
	}
}

func TestLoadReplyWatermarkValidation(t *testing.T) {
	good := LoadReply{AcceptLoad: 1.5, Low: 80, High: 90}
	var got LoadReply
	if err := Decode(Encode(&good), &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for _, bad := range []LoadReply{
		{AcceptLoad: 1, Low: 0, High: 90},
		{AcceptLoad: 1, Low: 90, High: 80},
		{AcceptLoad: -1, Low: 80, High: 90},
	} {
		var dst LoadReply
		if err := Decode(Encode(&bad), &dst); err == nil {
			t.Fatalf("Decode accepted %+v", bad)
		}
	}
}
