package wire

import (
	"encoding/binary"
)

// DeviceHello is the first frame on a connection a device dials to the
// gateway's registration plane: it names the slot the device claims. The
// gateway installs the slot into the live topology — replacing the
// link of any device that held it — bumps the topology config version
// and answers with a DeviceWelcome, after which the connection is the
// device's data link. A slot out of range is refused with a wire.Error
// and the connection closes.
type DeviceHello struct {
	// NodeID names the registering device.
	NodeID string
	// Slot is the device slot (index into the presence mask) being claimed.
	Slot uint16
}

// MsgType implements Message.
func (*DeviceHello) MsgType() MsgType { return TypeDeviceHello }

func (m *DeviceHello) appendPayload(dst []byte) []byte {
	dst = appendString(dst, m.NodeID)
	return binary.LittleEndian.AppendUint16(dst, m.Slot)
}

func (m *DeviceHello) decodePayload(r *reader) error {
	m.NodeID, m.Slot = r.str(m.NodeID), r.u16()
	return r.end()
}

// DeviceWelcome acknowledges a DeviceHello: the slot is installed in
// the live topology and the gateway reports the hierarchy size and the
// topology config version the admission produced, so the device knows
// which version of the world it joined. It is the first frame the
// device reads on its link; session frames follow it.
type DeviceWelcome struct {
	// Slot is the device slot that was admitted.
	Slot uint16
	// Devices is the total device-slot count of the hierarchy.
	Devices uint16
	// ConfigVersion is the topology config version after this admission.
	ConfigVersion uint64
}

// MsgType implements Message.
func (*DeviceWelcome) MsgType() MsgType { return TypeDeviceWelcome }

func (m *DeviceWelcome) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, m.Slot)
	dst = binary.LittleEndian.AppendUint16(dst, m.Devices)
	return binary.LittleEndian.AppendUint64(dst, m.ConfigVersion)
}

func (m *DeviceWelcome) decodePayload(r *reader) error {
	m.Slot, m.Devices, m.ConfigVersion = r.u16(), r.u16(), r.u64()
	return r.end()
}

// DeviceGoodbye deregisters a device slot: a registered device sends it
// on its data link, and the gateway removes the slot from the live
// topology and bumps the config version. Sessions already in flight
// complete under the membership snapshot they observed; new sessions no
// longer fan out to the departed slot. The gateway closing the link is
// the acknowledgement. A goodbye on a link that no longer holds its slot
// (the slot re-registered since) leaves the slot's new occupant alone.
type DeviceGoodbye struct {
	// NodeID names the departing device.
	NodeID string
	// Slot is the device slot being vacated.
	Slot uint16
	// Reason optionally describes why the device is leaving.
	Reason string
}

// MsgType implements Message.
func (*DeviceGoodbye) MsgType() MsgType { return TypeDeviceGoodbye }

func (m *DeviceGoodbye) appendPayload(dst []byte) []byte {
	dst = appendString(dst, m.NodeID)
	dst = binary.LittleEndian.AppendUint16(dst, m.Slot)
	return appendString(dst, m.Reason)
}

func (m *DeviceGoodbye) decodePayload(r *reader) error {
	m.NodeID, m.Slot, m.Reason = r.str(m.NodeID), r.u16(), r.str(m.Reason)
	return r.end()
}
